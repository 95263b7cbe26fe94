"""Properties of the JSON documents other than table.json: mutated text of a
manifest, q_table.json, grid_spec.json or binning_model.json only ever
raises PromoGymError from its loader, and an index key is read only in its
canonical decimal spelling."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_tables_properties import _edit

from promo_gym.binning import fit_bins, model_from_json, model_to_json
from promo_gym.errors import PromoGymError, SchemaError
from promo_gym.jsondoc import index
from promo_gym.learner import QTable, qtable_from_json, qtable_to_json
from promo_gym.manifest import load_manifest, manifest_to_json
from promo_gym.promoenv import spec_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the text the conftest reference_spec fixture reads; these documents are
# made at import, before any fixture runs
REFERENCE_SPEC = (FIXTURES / "reference_grid_spec.json").read_text(encoding="utf-8")


def _manifest_text() -> str:
    """The fixture manifest with absolute paths and an inline grid spec."""
    doc = json.loads(manifest_to_json(load_manifest(FIXTURES / "manifest.json")))
    doc["environment"]["grid_spec"] = json.loads(REFERENCE_SPEC)
    return json.dumps(doc, indent=1)


def _load_manifest_text(text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(text, encoding="utf-8")
        load_manifest(path)


DOCUMENTS = {
    "manifest": (_manifest_text(), _load_manifest_text),
    "q-table": (qtable_to_json(QTable(3, 2, [[0.5, -1.0], [0.0, 2.0], [1e-3, 7]])),
                qtable_from_json),
    "grid-spec": (REFERENCE_SPEC, spec_from_json),
    "binning-model": (model_to_json(fit_bins([0, 1, 2, 3, 5, 8, 13, 21])),
                      model_from_json),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_documents_load_unmutated(name):
    text, load = DOCUMENTS[name]
    load(text)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(deadline=None)
@given(edits=st.lists(_edit, min_size=1, max_size=4))
def test_mutated_text_only_raises_promo_gym_error(name, edits):
    text, load = DOCUMENTS[name]
    for position, deleted, inserted in edits:
        position %= len(text)
        text = text[:position] + inserted + text[position + deleted:]
    try:
        load(text)
    except PromoGymError:
        pass


@given(key=st.one_of(st.text(alphabet="0123456789+- _\t", max_size=4), st.text()),
       bound=st.integers(0, 120))
def test_index_key_is_canonical_and_in_range(key, bound):
    try:
        i = index(key, bound, "key")
    except SchemaError:
        assert key not in [str(i) for i in range(bound)]
    else:
        assert 0 <= i < bound and str(i) == key
