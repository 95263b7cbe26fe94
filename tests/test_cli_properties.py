"""Edited run artifacts meet exit 2, never a traceback.

Each example starts from a valid run directory (build, then train with
emit.traces): a copy of one slippery frozen-lake run, or a promo run built
from a small drawn grid spec, which also writes grid_spec.json. One drawn
semantic edit is applied to one of its artifacts: another run's
q_table.json of other dimensions, a trace reward of nan, a dropped trace
row, a changed trace state, a halved table.json probability, a table.json
header that names more states than P holds, or a grid_spec.json value of
the wrong JSON type. Then eval, render --episode 0, export-metrics and
train run over it through `cli.main`, in that order. Each must exit 0 or
2; an exception that escapes `main` is what the console script reports as
exit 1 with a traceback.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promo_gym.cli import main
from promo_gym.learner import QTable, qtable_to_json
from promo_gym.promoenv import spec_to_json
from test_tables_properties import grid_specs

EDITS = ("other-q-table", "nan-reward", "dropped-row", "changed-state",
         "halved-probability", "more-states", "mistyped-spec")
LEARNER = {"episodes": 30, "max_steps_per_episode": 30, "seed": 5}


@pytest.fixture(scope="module")
def lake_run(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("lake_run")
    (root / "manifest.json").write_text(json.dumps({
        "environment": {"kind": "frozen-lake", "slippery": True},
        "learner": LEARNER, "emit": {"traces": True}, "out_dir": "out",
    }))
    build_and_train(root)
    return root


def build_and_train(root: Path) -> None:
    for command in ("build", "train"):
        assert main([command, "--manifest", str(root / "manifest.json")]) == 0


def promo_run(root: Path, data) -> None:
    """Build and train a promo run in root from a drawn grid spec."""
    (root / "spec.json").write_text(spec_to_json(data.draw(grid_specs())))
    (root / "manifest.json").write_text(json.dumps({
        "environment": {"kind": "promo", "grid_spec_path": "spec.json"},
        "learner": LEARNER, "emit": {"traces": True}, "out_dir": "out",
    }))
    build_and_train(root)


def apply_edit(out: Path, edit: str, data) -> None:
    """Apply one drawn edit of the named kind to one artifact in out/."""
    doc = json.loads((out / "table.json").read_text())
    shape = (doc["n_states"], doc["n_actions"])
    if edit == "other-q-table":
        other = data.draw(st.tuples(st.integers(1, 24), st.integers(1, 6))
                          .filter(lambda other: other != shape))
        (out / "q_table.json").write_text(qtable_to_json(QTable(*other)))
    elif edit in ("halved-probability", "more-states"):
        if edit == "more-states":
            doc["n_states"] += data.draw(st.integers(1, 10**12))
        else:
            entries = doc["P"][str(data.draw(st.integers(0, shape[0] - 1)))][
                str(data.draw(st.integers(0, shape[1] - 1)))]
            entries[data.draw(st.integers(0, len(entries) - 1))][0] /= 2
        (out / "table.json").write_text(json.dumps(doc, indent=1))
    elif edit == "mistyped-spec":
        spec = json.loads((out / "grid_spec.json").read_text())
        key = data.draw(st.sampled_from(sorted(spec)))
        spec[key] = data.draw(st.sampled_from(["x", 1.5, True, None, [], {}])
                              .filter(lambda value: type(value) is not type(spec[key])))
        (out / "grid_spec.json").write_text(json.dumps(spec, indent=1))
    else:
        trace = out / "traces.csv"
        lines = trace.read_text().splitlines()
        row = data.draw(st.integers(1, len(lines) - 1))  # line 0 is the header
        cells = lines[row].split(",")
        if edit == "dropped-row":
            del lines[row]
        else:
            column, value = {
                "nan-reward": (4, st.just("nan")),
                "changed-state": (2, st.integers(-1, shape[0] + 4).map(str)
                                  .filter(lambda state: state != cells[2])),
            }[edit]
            cells[column] = data.draw(value)
            lines[row] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")


@settings(max_examples=40, deadline=None)
@given(edit=st.sampled_from(EDITS), data=st.data())
def test_edited_artifact_exits_0_or_2(lake_run, edit, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if edit == "mistyped-spec" or data.draw(st.booleans()):  # a promo run
            promo_run(work, data)
        else:
            shutil.copytree(lake_run, work, dirs_exist_ok=True)
        out = work / "out"
        apply_edit(out, edit, data)
        manifest = str(work / "manifest.json")
        for argv in (["eval", "--manifest", manifest, "--episodes", "10"],
                     ["render", "--trace", str(out / "traces.csv"),
                      "--table", str(out / "table.json"), "--episode", "0"],
                     ["export-metrics", "--manifest", manifest],
                     ["train", "--manifest", manifest]):
            assert main(argv) in (0, 2), argv
