"""The determinism contract over a family of small runs.

A run is an environment (an inline promo grid spec or the frozen lake,
slippery or not), a learner config (1-200 episodes, 1-30 steps, any
64-bit seed), a set of emit flags and an evaluation episode count. Each
run goes through build, train and eval, then export-metrics and render
when traces are emitted, all through `cli.main`.

The properties: the same run in two directories writes the same files and
prints the same lines once the directory is taken out, every command
exits 0, and the emit flags change only which files appear, never
q_table.json or the metrics CSVs.

determinism_family.json pins a digest of every file and stdout line for
20 runs drawn from the same strategy. A change that claims to keep every
output byte leaves those digests alone; one that means to change outputs
re-records them with `PYTHONPATH=src python tests/test_determinism_family.py`
and says why.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from promo_gym.cli import main

FAMILY = Path(__file__).resolve().parent / "determinism_family.json"
GRID_WIDTH = 10
METRIC_CSVS = ("mean_cumulative.csv", "episodic.csv")


@st.composite
def grid_specs(draw) -> dict:
    rows = draw(st.integers(1, 6))
    columns = st.sets(st.integers(0, GRID_WIDTH - 1), min_size=1)
    avail = {r: sorted(draw(columns)) for r in range(rows)}
    cells = [(r, c) for r in range(rows) for c in avail[r]]
    goals = draw(st.lists(st.sampled_from(cells), unique=True, max_size=3))
    starts = draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                     st.integers(0, GRID_WIDTH - 1)),
                           min_size=1, max_size=3, unique=True))
    return {"rows": rows, "width": GRID_WIDTH,
            "avail": {str(r): cols for r, cols in avail.items()},
            "goals": [list(g) for g in sorted(goals)],
            "initial_states": [list(s) for s in sorted(starts)]}


environments = st.one_of(
    grid_specs().map(lambda spec: {"kind": "promo", "grid_spec": spec}),
    st.booleans().map(lambda slip: {"kind": "frozen-lake", "slippery": slip}),
)

runs = st.fixed_dictionaries({
    "environment": environments,
    "learner": st.fixed_dictionaries({
        "episodes": st.integers(1, 200),
        "max_steps_per_episode": st.integers(1, 30),
        "seed": st.integers(0, 2**64 - 1),
    }),
    "emit": st.fixed_dictionaries({flag: st.booleans()
                                   for flag in ("metrics", "traces", "plots")}),
    "eval_episodes": st.integers(0, 100),
})


def run_pipeline(run: dict, workdir: Path, commands=None) -> tuple[dict, list[str]]:
    """Every file under workdir and every stdout line, with workdir taken
    out, after the run's commands; each command must exit 0."""
    doc = {"environment": run["environment"], "learner": run["learner"],
           "out_dir": "out", "emit": run["emit"]}
    manifest = workdir / "manifest.json"
    manifest.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    out = workdir / "out"
    if commands is None:
        commands = [["build"], ["train"], ["eval", "--episodes", str(run["eval_episodes"])]]
        if run["emit"]["traces"]:
            commands.append(["export-metrics"])
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for argv in commands:
            assert main(argv + ["--manifest", str(manifest)]) == 0, argv
        if run["emit"]["traces"] and ["train"] in commands:
            last = run["learner"]["episodes"] - 1
            assert main(["render", "--trace", str(out / "traces.csv"),
                         "--table", str(out / "table.json"),
                         "--episode", str(last)]) == 0
    files = {path.relative_to(workdir).as_posix(): path.read_bytes()
             for path in sorted(workdir.rglob("*")) if path.is_file()}
    return files, printed.getvalue().replace(str(workdir), "<run>").splitlines()


def digest(files: dict, lines: list[str]) -> str:
    doc = {"files": {name: hashlib.sha256(data).hexdigest()
                     for name, data in files.items()},
           "stdout": lines}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


@settings(deadline=None, max_examples=12, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs)
def test_same_run_same_bytes_whatever_is_emitted(run):
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        files, lines = run_pipeline(run, Path(a))
        again = run_pipeline(run, Path(b))
        assert (files, lines) == again

        everything = dict(run, emit={"metrics": True, "traces": True, "plots": True})
        (Path(b) / "full").mkdir()
        full, _ = run_pipeline(everything, Path(b) / "full", [["build"], ["train"]])
    assert files["out/q_table.json"] == full["out/q_table.json"]
    for name in METRIC_CSVS:
        if f"out/{name}" in files:
            assert files[f"out/{name}"] == full[f"out/{name}"], name
    assert ("out/mean_cumulative.csv" in files) == (run["emit"]["metrics"]
                                                    or run["emit"]["traces"])


def _family() -> list[dict]:
    return json.loads(FAMILY.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", _family(), ids=lambda entry: entry["id"])
def test_recorded_run_digest(entry, tmp_path):
    files, lines = run_pipeline(entry["run"], tmp_path)
    assert digest(files, lines) == entry["digest"]


def record(count: int = 20) -> list[dict]:
    """Draw count runs from the strategy, derandomized, and digest each
    one's outputs with the code as it stands. The runs are spread over the
    later draws, which are larger than hypothesis's first, minimal ones."""
    drawn: list[dict] = []

    @settings(database=None, derandomize=True, max_examples=20 * count,
              phases=[Phase.generate])
    @given(run=runs)
    def collect(run):
        if run not in drawn:
            drawn.append(run)

    collect()
    later = drawn[len(drawn) // 2:]
    entries = []
    for i, run in enumerate(later[::len(later) // count][:count]):
        with tempfile.TemporaryDirectory() as work:
            entries.append({"id": f"run{i:02d}", "run": run,
                            "digest": digest(*run_pipeline(run, Path(work)))})
    return entries


if __name__ == "__main__":
    FAMILY.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
