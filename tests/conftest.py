import os
from pathlib import Path

import pytest

from promo_gym.frozen_lake import make_frozen_lake
from promo_gym.promoenv import build_promo_mdp, spec_from_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """Child interpreters, such as the console entry-point tests start, import
    promo_gym from this checkout's src/ as the test process does."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(p for p in paths if p))
        yield


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def reference_spec():
    """The bundled demo layout, read from fixtures/reference_grid_spec.json:
    5 rows x 10 columns, channels on columns 0-5 and 8, one goal at
    (2, 4), episodes starting at (3, 5)."""
    text = (FIXTURES / "reference_grid_spec.json").read_text(encoding="utf-8")
    return spec_from_json(text)


@pytest.fixture(scope="session")
def reference_table(reference_spec):
    """The bundled demo promo MDP, built from reference_spec."""
    return build_promo_mdp(reference_spec)


@pytest.fixture(scope="session")
def lake_table():
    return make_frozen_lake(slippery=False)


@pytest.fixture(scope="session")
def lake_table_slippery():
    return make_frozen_lake(slippery=True)
