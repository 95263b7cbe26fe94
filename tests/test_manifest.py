import json
from datetime import date

import pytest

from promo_gym.cli import main
from promo_gym.errors import ConfigError
from promo_gym.manifest import load_manifest, manifest_to_json


def test_bundled_manifest_loads(fixtures_dir):
    manifest = load_manifest(fixtures_dir / "manifest.json")
    assert manifest.environment.kind == "promo"
    assert manifest.environment.target_week == date(2015, 6, 8)
    assert manifest.learner.episodes == 5000
    assert manifest.learner.seed == 20150608
    assert manifest.emit.plots is True
    # relative inputs resolve against the manifest's directory
    assert manifest.inputs.rx_transactions == fixtures_dir / "rx_transactions.csv"


def test_traces_manifest_is_the_fixture_manifest_with_traces_on(fixtures_dir):
    plain = load_manifest(fixtures_dir / "manifest.json")
    traces = load_manifest(fixtures_dir / "manifest_traces.json")
    assert traces.emit.traces and not plain.emit.traces
    traces.emit.traces = False
    assert traces == plain


def test_round_trip_is_lossless(fixtures_dir, tmp_path):
    manifest = load_manifest(fixtures_dir / "manifest.json")
    dumped = tmp_path / "manifest.json"
    dumped.write_text(manifest_to_json(manifest), encoding="utf-8")
    again = load_manifest(dumped)
    assert again == manifest


def test_inline_grid_spec_round_trips(fixtures_dir, tmp_path):
    spec_doc = json.loads(
        (fixtures_dir / "reference_grid_spec.json").read_text()
    )
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "environment": {"kind": "promo", "grid_spec": spec_doc},
        "out_dir": "out",
    }))
    manifest = load_manifest(path)
    assert manifest.environment.grid_spec is not None
    assert manifest.environment.grid_spec.goals == frozenset({(2, 4)})
    dumped = tmp_path / "m2.json"
    dumped.write_text(manifest_to_json(manifest), encoding="utf-8")
    assert load_manifest(dumped) == manifest


def test_default_out_dir_is_beside_the_manifest(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{}")
    assert load_manifest(path).out_dir == tmp_path / "out"


def test_unknown_env_kind_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"environment": {"kind": "cartpole"}}')
    with pytest.raises(ConfigError):
        load_manifest(path)


def test_unknown_learner_field_rejected(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"learner": {"learning_rate": 0.1}}')
    with pytest.raises(ConfigError):
        load_manifest(path)


def test_missing_manifest_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_manifest(tmp_path / "nope.json")


@pytest.mark.parametrize("doc", [
    {"environment": {"kind": "frozen-lake", "slippery": "false"}},
    {"environment": {"allow_empty_promos": "true"}},
    {"emit": {"metrics": "false"}},
    {"emit": {"traces": 1}},
    {"emit": {"plots": None}},
    [],
    {"inputs": ["rx.csv"]},
    {"environment": "promo"},
    {"learner": None},
    {"emit": []},
    {"learner": {"episodes": "10"}},
    {"learner": {"alpha": None}},
    {"learner": {"seed": 1.5}},
    {"learner": {"max_steps_per_episode": True}},
    {"environment": {"target_week": 20150608}},
    # date.fromisoformat reads these from Python 3.11 on; 3.10 refuses them
    {"environment": {"target_week": "20150608"}},
    {"environment": {"target_week": "2015-W24-1"}},
    {"out_dir": 5},
    {"out_dir": None},
    {"outdir": "out"},
    {"inputs": {"promoplan": "promo_plan.csv"}},
    {"environment": {"slipery": True}},
    {"emit": {"trace": True}},
])
def test_malformed_manifest_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_manifest(path)
    assert main(["build", "--manifest", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("content, message", [
    (b'{"out_dir": "\xff"}', "not UTF-8"),
    (None, "a directory"),
], ids=["not-utf-8", "directory"])
def test_unreadable_manifest_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "m.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["build", "--manifest", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_malformed_inline_grid_spec_exits_2(tmp_path, fixtures_dir, capsys):
    spec_doc = json.loads((fixtures_dir / "reference_grid_spec.json").read_text())
    spec_doc["avail"] = list(spec_doc["avail"].values())
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"environment": {"grid_spec": spec_doc}}))
    assert main(["build", "--manifest", str(path)]) == 2
    assert "grid spec" in capsys.readouterr().err
