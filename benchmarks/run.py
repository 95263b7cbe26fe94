"""promo-gym benchmark: one workload, driven through the real CLI in process.

Run from the repository root:

    python3 benchmarks/run.py --workload promo-train --seed 1 --seconds 30 --trace 0

Each repetition generates the workload's inputs from the seed into a fresh
directory under .bench_work/, runs the untimed upstream CLI stages (set-up),
then runs and times the workload's stages. Repetitions continue until
--seconds have passed; every figure is a median over them. The process is
single-threaded and runs nothing in parallel.

--trace 0 prints the end-to-end metrics: setup_s (a fresh interpreter's
import of the CLI plus one repetition's set-up), pipeline_s (the timed
stages' wall time) and peak_rss_mib. The stages' own wall times, the
quality figures and failed_op_ratio are printed above them and kept in
.bench_work/<workload>/result.json.

--trace 1 runs untraced repetitions for half the time, then one repetition
with every listed layer wrapped (see spans.py), and prints the per-layer
metrics and the tracing overhead. Either way the last stdout line is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Outputs are checked on every run: each stage exits 0, every repetition
writes the same bytes, built tables validate, value iteration converges,
export-metrics rewrites the metrics CSVs unchanged, and for the default
seed the inputs and outputs match expected_hashes.json.
"""

import os

# one thread: numpy's BLAS pool is sized when numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_work"
EXPECTED_HASHES = BENCH_DIR / "expected_hashes.json"
DEFAULT_SEED = 1
MIN_REPS = 3
IMPORT_SAMPLES = 5

METRIC_CSVS = ("mean_cumulative.csv", "episodic.csv")
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mib": "MiB"}

# Spans that a workload must record: those of a run that learns, and those
# of an ingest followed by a build from a derived spec.
_LEARNING = {
    "manifest.load_manifest", "tables.deserialize", "learner.train",
    "learner.run_episode", "learner.act", "learner.q_update",
    "learner.evaluate_greedy", "learner.qtable_to_json", "tables.TabularEnv.step",
    "tables.step_sample", "envcore.RngStream.substream", "envcore.RngStream.random",
    "envcore.RngStream.integers", "metrics.compute_metrics",
}
_INGEST_AND_DERIVE = {
    "manifest.load_manifest", "ingest.parse_transactions", "ingest.parse_promo_plan",
    "ingest.parse_holidays", "ingest.unify", "ingest.write_daily_series",
    "binning.fit_bins", "ingest.read_daily_series", "promoenv.derive_spec_from_data",
    "binning.assign_bin", "promoenv.build_promo_mdp", "tables.validate",
    "tables.serialize",
}

# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "promo-train": {
        "generate": lambda run_dir, seed: workloads.promo_train(run_dir, seed, FIXTURES),
        "upstream": [["ingest"], ["build"]],
        "stages": [["train"],
                   ["eval", "--episodes", str(workloads.PROMO_EVAL_EPISODES)]],
        "outputs": ("daily_series.csv", "table.json", "q_table.json",
                    "mean_cumulative.csv", "episodic.csv", "eval_report.json"),
        "greedy_episodes": workloads.PROMO_EVAL_EPISODES,
        "spans": _LEARNING | _INGEST_AND_DERIVE | {"metrics.write_line_chart_svg"},
    },
    "retail-ingest": {
        "generate": workloads.retail_ingest,
        "upstream": [],
        "stages": [["ingest"], ["build"]],
        "outputs": ("daily_series.csv", "table.json"),
        "greedy_episodes": None,
        "spans": _INGEST_AND_DERIVE | {"ingest.parse_zip_store_map"},
    },
    "wide-grid-artifacts": {
        "generate": workloads.wide_grid,
        "upstream": [],
        "stages": [["build"], ["train"], ["export-metrics"], ["oracle"]],
        "outputs": ("table.json", "q_table.json", "mean_cumulative.csv",
                    "episodic.csv"),
        # cmd_train's own greedy evaluation: 100 episodes at the learner seed
        "greedy_episodes": 100,
        "spans": _LEARNING | {
            "promoenv.spec_from_json", "promoenv.build_promo_mdp", "tables.validate",
            "tables.serialize", "metrics.write_trace_csv", "metrics.read_trace_csv",
            "solve.value_iteration",
        },
    },
}


class Gate:
    """Counts stage calls and correctness checks, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


class Program:
    """The promo-gym modules the benchmark calls, imported from ./src."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        for name in ("cli", "envcore", "learner", "solve", "tables"):
            setattr(self, name, importlib.import_module(f"promo_gym.{name}"))
        loaded = Path(self.cli.__file__).resolve()
        if SRC.resolve() not in loaded.parents:
            raise SystemExit(f"error: promo_gym was imported from {loaded}, not {SRC}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_files(directory: Path, names) -> dict[str, str]:
    return {name: sha256(directory / name) if (directory / name).exists() else "missing"
            for name in names}


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).exists():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return "unknown"


def check_benchmark_json(layer_units: dict[str, str]) -> None:
    """Fail fast when BENCHMARK.json and this script disagree on names."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    doc = json.loads(path.read_text(encoding="utf-8"))
    declared = {
        "workloads": {w["name"] for w in doc["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
    }
    produced = {"workloads": set(WORKLOADS), "end_to_end": END_TO_END,
                "per_layer": layer_units}
    for key, value in produced.items():
        if declared[key] != value:
            raise SystemExit(f"error: BENCHMARK.json {key} do not match benchmarks/run.py")


class Runner:
    def __init__(self, program: Program, name: str, seed: int, gate: Gate):
        self.pg = program
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.gate = gate
        self.work = WORK / name
        self.first: dict | None = None  # the first repetition's hashes
        self.sizes: dict = {}
        self.quality: dict = {}

    def cli(self, manifest: Path, argv: list[str]) -> tuple[int, str]:
        command, *extra = argv
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = self.pg.cli.main([command, "--manifest", str(manifest), *extra])
        except (Exception, SystemExit):
            traceback.print_exc()
            code = -1
        return code, out.getvalue()

    def oracle(self, manifest: Path) -> tuple[int, str]:
        """Value iteration on the table the build stage wrote."""
        gamma = json.loads(manifest.read_text(encoding="utf-8"))["learner"]["gamma"]
        table = self.pg.tables.deserialize(
            (manifest.parent / "out" / "table.json").read_text(encoding="utf-8"))
        solution = self.pg.solve.value_iteration(table, gamma)
        return (0 if solution.converged else 1), f"{solution.iterations} iterations"

    def stage(self, manifest: Path, argv: list[str], tracer) -> tuple[int, str, float]:
        span = tracer.span(f"stage.{argv[0]}") if tracer else contextlib.nullcontext()
        with span:
            started = time.perf_counter()
            if argv[0] == "oracle":
                code, printed = self.oracle(manifest)
            else:
                code, printed = self.cli(manifest, argv)
            elapsed = time.perf_counter() - started
        self.gate.check(code == 0, f"{self.name}: stage {argv[0]} exited {code}")
        return code, printed, elapsed

    def repetition(self, tracer=None) -> dict | None:
        """One set-up plus timed pipeline; None when a stage failed."""
        run_dir = self.work / "rep"
        if run_dir.exists():
            shutil.rmtree(run_dir)
        started = time.perf_counter()
        run_dir.mkdir(parents=True)
        manifest, sizes = self.wl["generate"](run_dir, self.seed)
        inputs = sorted(p.name for p in run_dir.iterdir())
        out = run_dir / "out"
        if tracer:
            tracer.install()
        try:
            for argv in self.wl["upstream"]:
                if self.stage(manifest, argv, tracer)[0] != 0:
                    return None
            setup_s = time.perf_counter() - started
            inputs = hash_files(run_dir, inputs)  # the stages write only to out/
            times, printed = {}, {}
            metric_csvs = None
            for argv in self.wl["stages"]:
                code, printed[argv[0]], times[argv[0]] = self.stage(manifest, argv, tracer)
                if code != 0:
                    return None
                if argv[0] == "train":
                    metric_csvs = hash_files(out, METRIC_CSVS)
                if argv[0] == "export-metrics":
                    self.gate.check(hash_files(out, METRIC_CSVS) == metric_csvs,
                                    f"{self.name}: export-metrics rewrote the metrics "
                                    "CSVs with other bytes")
        finally:
            if tracer:
                tracer.uninstall()

        hashes = {"inputs": inputs, "outputs": hash_files(out, self.wl["outputs"])}
        if self.first is None:
            self.first = hashes
            self.sizes.update(sizes)
            self.first_checks(manifest, printed)
        else:
            self.gate.check(hashes == self.first,
                            f"{self.name}: a repetition wrote other bytes than the first")
        return {"setup_s": setup_s, "stages": times, "pipeline_s": sum(times.values())}

    def first_checks(self, manifest: Path, printed: dict[str, str]) -> None:
        """Checks and quality figures that hold for every repetition once the
        repetitions are known to write the same bytes."""
        out = manifest.parent / "out"
        pg = self.pg
        table = pg.tables.deserialize((out / "table.json").read_text(encoding="utf-8"))
        violations = pg.tables.validate(table)
        self.gate.check(not violations, f"{self.name}: table.json fails validation: "
                        f"{violations[:3]}")
        self.sizes["states"] = table.n_states
        if self.seed == DEFAULT_SEED:
            expected = json.loads(EXPECTED_HASHES.read_text(encoding="utf-8"))
            self.gate.check(expected.get(self.name) == self.first,
                            f"{self.name}: default-seed input or output hashes differ "
                            f"from {EXPECTED_HASHES.name}")
        episodes = self.wl["greedy_episodes"]
        if episodes is None:
            return
        learner_doc = json.loads(manifest.read_text(encoding="utf-8"))["learner"]
        if "eval" in printed:
            report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
            success = report["success_rate"]
        else:
            line = next(x for x in printed["train"].splitlines()
                        if x.startswith("greedy success rate:"))
            success = float(line.split()[3])
        q = pg.learner.qtable_from_json((out / "q_table.json").read_text(encoding="utf-8"))
        solution = pg.solve.value_iteration(table, learner_doc["gamma"])
        self.gate.check(solution.converged,
                        f"{self.name}: value iteration did not converge")
        config = pg.learner.LearnerConfig(
            episodes=episodes, seed=learner_doc["seed"],
            max_steps_per_episode=learner_doc["max_steps_per_episode"])
        env = pg.tables.TabularEnv(table)
        root = pg.envcore.RngStream(learner_doc["seed"])
        visited = set()
        for i in range(episodes):  # the same episodes the greedy evaluation ran
            trace = pg.learner.run_episode(env, q, config, 0.0,
                                           root.substream(pg.learner.EVAL_STREAM, i),
                                           learning=False)
            visited.update(step.state for step in trace.steps)
        policy = pg.learner.greedy_policy(q)
        optimal = sum(abs(solution.Q[s, policy[s]] - solution.V[s]) <= 1e-9
                      for s in visited)
        self.quality = {"greedy_success_rate": success,
                        "oracle_optimal_action_ratio": optimal / len(visited),
                        "oracle_visited_states": len(visited)}

    def measure(self, seconds: float) -> list[dict]:
        """A warm-up repetition, which the checks and quality figures come
        from, then timed repetitions for the given time."""
        if self.repetition() is None:
            return []
        reps = []
        started = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
            rep = self.repetition()
            if rep is None:
                break
            reps.append(rep)
        return reps


def import_seconds() -> list[float]:
    """Start-up of a fresh interpreter that imports the CLI, timed several
    times; the part of set-up that one process cannot repeat."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import promo_gym.cli"],
                       cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - started)
    return samples


def median_report(reps: list[dict]) -> dict[str, float]:
    stage_names = reps[0]["stages"]
    out = {f"{stage.replace('-', '_')}_s": statistics.median(r["stages"][stage] for r in reps)
           for stage in stage_names}
    out["pipeline_s"] = statistics.median(r["pipeline_s"] for r in reps)
    out["rep_setup_s"] = statistics.median(r["setup_s"] for r in reps)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    for needed in (SRC / "promo_gym", FIXTURES, EXPECTED_HASHES):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    program = Program()
    import_s = statistics.median(import_seconds())
    layer_units = spans.metric_units()
    check_benchmark_json(layer_units)

    gate = Gate()
    runner = Runner(program, args.workload, args.seed, gate)
    if runner.work.exists():
        shutil.rmtree(runner.work)
    seconds = args.seconds / 2 if args.trace else args.seconds
    reps = runner.measure(seconds)
    complete = bool(reps) and len(reps) >= MIN_REPS
    gate.check(complete, f"{args.workload}: fewer than {MIN_REPS} repetitions completed")
    medians = median_report(reps) if reps else {}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": {
            "revision": git_revision(),
            "python": platform.python_version(),
            "numpy": importlib.import_module("numpy").__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "rng_algorithm": program.envcore.RngStream.ALGORITHM,
        },
        "sizes": runner.sizes,
        "repetitions": len(reps),
        "medians": medians,
        "import_s": import_s,
        "quality": runner.quality,
        "hashes": runner.first,
        "per_repetition": reps,
    }

    if args.trace:
        tracer = spans.Tracer()
        traced = runner.repetition(tracer) if complete else None
        gate.check(traced is not None, f"{args.workload}: the traced repetition failed")
        gate.check(not tracer.missing,
                   f"{args.workload}: cannot wrap {', '.join(tracer.missing)}")
        overhead = traced["pipeline_s"] - medians["pipeline_s"] if traced else 0.0
        values = spans.layer_metrics(tracer, overhead)
        for name in sorted(runner.wl["spans"]):
            gate.check(values[name + ".calls"] > 0,
                       f"{args.workload}: span {name} recorded no calls")
        tracer.write(runner.work / "spans.npz")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_units.items()}
        result["traced_pipeline_s"] = traced["pipeline_s"] if traced else None
    else:
        values = {
            "setup_s": import_s + medians.get("rep_setup_s", 0.0),
            "pipeline_s": medians.get("pipeline_s", 0.0),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    run_dir = runner.work / "rep"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    result["correct"] = gate.failed == 0
    result["attempted"] = gate.attempted
    result["failed"] = gate.failed
    result["metrics"] = metrics
    (runner.work / "result.json").write_text(json.dumps(result, indent=1) + "\n",
                                             encoding="utf-8")

    stamp = result["stamp"]
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  "
          f"revision {stamp['revision'][:12]}  python {stamp['python']}  "
          f"numpy {stamp['numpy']}  nproc {stamp['nproc']}  rng {stamp['rng_algorithm']}")
    print("inputs: " + "  ".join(f"{k}={v}" for k, v in result["sizes"].items()))
    print(f"import_s {import_s} s (median of {IMPORT_SAMPLES} fresh interpreters)")
    for name, value in medians.items():
        print(f"{name} {value} s (median of {len(reps)} untraced repetitions)")
    for name, value in runner.quality.items():
        print(f"{name} {value} {'states' if name == 'oracle_visited_states' else 'ratio'}")
    print(f"failed_op_ratio {gate.failed / max(gate.attempted, 1)} ratio "
          f"({gate.failed} of {gate.attempted})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
