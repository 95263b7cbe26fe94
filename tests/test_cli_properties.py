"""Edited run artifacts meet exit 2, never a traceback.

One valid frozen-lake run directory (build, then train with emit.traces) is
copied for each example, and one drawn semantic edit is applied to one of
its artifacts: another run's q_table.json of other dimensions, a trace
reward of nan, a dropped trace row, a changed trace state, or a halved
table.json probability. Then eval, render --episode 0, export-metrics and
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

EDITS = ("other-q-table", "nan-reward", "dropped-row", "changed-state",
         "halved-probability")
LAKE_SHAPE = (16, 4)


@pytest.fixture(scope="module")
def lake_run(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("lake_run")
    (root / "manifest.json").write_text(json.dumps({
        "environment": {"kind": "frozen-lake", "slippery": True},
        "learner": {"episodes": 30, "max_steps_per_episode": 30, "seed": 5},
        "emit": {"traces": True}, "out_dir": "out",
    }))
    for command in ("build", "train"):
        assert main([command, "--manifest", str(root / "manifest.json")]) == 0
    return root


def apply_edit(out: Path, edit: str, data) -> None:
    """Apply one drawn edit of the named kind to one artifact in out/."""
    if edit == "other-q-table":
        shape = data.draw(st.tuples(st.integers(1, 24), st.integers(1, 6))
                          .filter(lambda shape: shape != LAKE_SHAPE))
        (out / "q_table.json").write_text(qtable_to_json(QTable(*shape)))
    elif edit == "halved-probability":
        doc = json.loads((out / "table.json").read_text())
        entries = doc["P"][str(data.draw(st.integers(0, LAKE_SHAPE[0] - 1)))][
            str(data.draw(st.integers(0, LAKE_SHAPE[1] - 1)))]
        entries[data.draw(st.integers(0, len(entries) - 1))][0] /= 2
        (out / "table.json").write_text(json.dumps(doc, indent=1))
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
                "changed-state": (2, st.integers(-1, 20).map(str)
                                  .filter(lambda state: state != cells[2])),
            }[edit]
            cells[column] = data.draw(value)
            lines[row] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")


@settings(max_examples=25, deadline=None)
@given(edit=st.sampled_from(EDITS), data=st.data())
def test_edited_artifact_exits_0_or_2(lake_run, edit, data):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
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
