"""promo-gym command line: ingest -> build -> train -> eval, plus render
and export-metrics. The manifest alone sets a run: its inputs, environment,
learner (seed and episode count included) and emitted files. The command
line adds only where outputs go (--out) and how many episodes eval replays
(eval --episodes). Exit codes are 0 success, 2 bad input or config, 1
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import binning, ingest, jsondoc, metrics, promoenv, rendering, tables
from .errors import ConfigError, EmptyInput, PromoGymError, SchemaError
from .frozen_lake import make_frozen_lake
from .learner import QTable, evaluate_greedy, qtable_from_json, qtable_to_json, train
from .manifest import RunManifest, load_manifest
from .tables import TabularEnv

# The files each stage writes into the output directory, in pipeline order.
# A stage removes its own and every later stage's before its first write.
OUTPUTS = {
    "ingest": ("daily_series.csv", "binning_model.json"),
    "build": ("grid_spec.json", "table.json"),
    "train": ("q_table.json", "traces.csv", "mean_cumulative.csv", "episodic.csv",
              "mean_cumulative.svg", "episodic.svg"),
    "eval": ("eval_report.json",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promo-gym",
        description="Tabular Q-learning over retail promotional-forecasting MDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_manifest(cmd: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("--manifest", required=True, help="run manifest JSON")
        p.add_argument("--out", help="override the manifest's output directory")
        return p

    with_manifest("ingest", "parse inputs into the unified daily series and bins")
    with_manifest("build", "compile the environment's transition table")
    with_manifest("train", "train the agent and emit metrics")

    p = with_manifest("eval", "evaluate <out>/q_table.json greedily")
    p.add_argument("--episodes", type=int, default=100,
                   help="evaluation episode count (default 100)")

    p = sub.add_parser("render", help="print an episode trace as text frames")
    p.add_argument("--trace", required=True, help="trace CSV file")
    p.add_argument("--table", required=True, help="transition-table JSON file")
    p.add_argument("--episode", type=int, default=0,
                   help="episode of the trace file to print (default 0)")

    with_manifest("export-metrics", "recompute metrics CSVs from saved traces")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "render":
            return cmd_render(Path(args.trace), Path(args.table), args.episode)
        manifest = load_manifest(args.manifest)
        if args.out:
            manifest.out_dir = Path(args.out)
        if args.command == "ingest":
            return cmd_ingest(manifest)
        if args.command == "build":
            return cmd_build(manifest)
        if args.command == "train":
            return cmd_train(manifest)
        if args.command == "eval":
            return cmd_eval(manifest, args.episodes)
        if args.command == "export-metrics":
            return cmd_export_metrics(manifest)
        raise AssertionError(f"unhandled command {args.command}")
    except PromoGymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# --- subcommands ---------------------------------------------------------------


def cmd_ingest(manifest: RunManifest) -> int:
    """Parse inputs, unify, fit bins; writes the series CSV and bin model."""
    manifest.require_inputs("holiday_calendar")
    inputs = manifest.inputs
    if inputs.rx_transactions is None and inputs.online_transactions is None:
        raise EmptyInput("manifest names no transactions input (rx or online)")

    promos = []
    if inputs.promo_plan is not None:
        promos = ingest.parse_promo_plan(inputs.promo_plan)
        print(f"promo_plan: {len(promos)} records")
    online = []
    if inputs.online_transactions is not None:
        online = ingest.parse_transactions(inputs.online_transactions, "online")
        print(f"online_transactions: {len(online)} records")
    rx = []
    if inputs.rx_transactions is not None:
        rx = ingest.parse_transactions(inputs.rx_transactions, "rx")
        print(f"rx_transactions: {len(rx)} records")
    holidays = ingest.parse_holidays(inputs.holiday_calendar)
    print(f"holiday_calendar: {len(holidays)} dates")
    zip_map = None
    if inputs.zip_store_map is not None:
        zip_map = ingest.parse_zip_store_map(inputs.zip_store_map)

    series = ingest.unify(online, rx, promos, holidays, zip_map)
    model = binning.fit_bins([rec.units_sold for rec in series])

    out = _clear_outputs(manifest.out_dir, "ingest")
    series_path = out / "daily_series.csv"
    model_path = out / "binning_model.json"
    ingest.write_daily_series(series_path, series)
    _write_text(model_path, binning.model_to_json(model))
    print(f"daily series: {len(series)} records -> {series_path}")
    print(f"bin boundaries: {model.boundaries} (fitted on {model.fitted_on}) "
          f"-> {model_path}")
    return 0


def cmd_build(manifest: RunManifest) -> int:
    """Build (or validate) the transition table and write it to out/."""
    env_choice = manifest.environment
    spec = _resolve_grid_spec(manifest) if env_choice.kind == "promo" else None
    if env_choice.kind == "table":
        if env_choice.table_path is None:
            raise EmptyInput("environment kind 'table' needs table_path")
        table = _load_table(env_choice.table_path)
    else:
        table = _validated(make_frozen_lake(slippery=env_choice.slippery)
                           if spec is None else promoenv.build_promo_mdp(spec),
                           "built table")
    out = _clear_outputs(manifest.out_dir, "build")
    if spec is not None:
        _write_text(out / "grid_spec.json", promoenv.spec_to_json(spec))
    table_path = out / "table.json"
    _write_text(table_path, tables.serialize(table))
    print(f"table: {table.n_states} states x {table.n_actions} actions, "
          f"validation clean -> {table_path}")
    return 0


def _resolve_grid_spec(manifest: RunManifest) -> promoenv.PromoGridSpec:
    env_choice = manifest.environment
    if env_choice.grid_spec is not None:
        return env_choice.grid_spec
    if env_choice.grid_spec_path is not None:
        return promoenv.spec_from_json(jsondoc.read(env_choice.grid_spec_path))
    # derive from ingest outputs
    series_path = _run_file(manifest.out_dir, "daily_series.csv")
    model_path = _run_file(manifest.out_dir, "binning_model.json")
    if env_choice.target_week is None:
        raise EmptyInput("deriving a promo grid needs environment.target_week")
    manifest.require_inputs("promo_plan")
    series = ingest.read_daily_series(series_path)
    model = binning.model_from_json(jsondoc.read(model_path))
    promos = ingest.parse_promo_plan(manifest.inputs.promo_plan)
    return promoenv.derive_spec_from_data(
        series, model, promos, env_choice.target_week,
        allow_empty_promos=env_choice.allow_empty_promos,
    )


def cmd_train(manifest: RunManifest) -> int:
    """Train per the manifest's learner config; emit q-table and metrics."""
    table = _load_table(_run_file(manifest.out_dir, "table.json"))
    emit = manifest.emit
    env = TabularEnv(table)
    q = QTable(table.n_states, table.n_actions)
    traces = train(env, manifest.learner, q, record_steps=emit.traces)
    if emit.traces:
        traces = list(traces)  # the trace file is written after training
    series = metrics.compute_metrics(traces)

    out = _clear_outputs(manifest.out_dir, "train")
    q_path = out / "q_table.json"
    _write_text(q_path, qtable_to_json(q))
    print(f"trained {manifest.learner.episodes} episodes "
          f"(seed {manifest.learner.seed}) -> {q_path}")
    _write_metrics(out, series, emit.metrics, emit.plots)
    if emit.metrics:
        print(f"metrics -> {out / 'mean_cumulative.csv'}, {out / 'episodic.csv'}")
    if emit.traces:
        trace_path = out / "traces.csv"
        metrics.write_trace_csv(trace_path, traces)
        print(f"traces -> {trace_path} ({len(traces)} episodes)")
    if emit.plots:
        print(f"plots -> {out / 'mean_cumulative.svg'}, {out / 'episodic.svg'}")

    report = evaluate_greedy(env, q, episodes=100,
                             max_steps=manifest.learner.max_steps_per_episode,
                             seed=manifest.learner.seed)
    print(f"greedy success rate: {report['success_rate']:.3f}  "
          f"mean total reward: {report['mean_total_reward']:.3f}")
    return 0


def cmd_eval(manifest: RunManifest, episodes: int) -> int:
    """Greedy evaluation of out/q_table.json; writes eval_report.json."""
    if episodes < 0:
        raise EmptyInput(f"episode count must be >= 0, got {episodes}")
    table = _load_table(_run_file(manifest.out_dir, "table.json"))
    env = TabularEnv(table)
    q = qtable_from_json(jsondoc.read(_run_file(manifest.out_dir, "q_table.json")))
    report = evaluate_greedy(env, q, episodes=episodes,
                             max_steps=manifest.learner.max_steps_per_episode,
                             seed=manifest.learner.seed)
    out = _clear_outputs(manifest.out_dir, "eval")
    report_path = out / "eval_report.json"
    _write_text(report_path, json.dumps(report, indent=1))
    for key, value in report.items():
        print(f"{key}: {value}")
    print(f"report -> {report_path}")
    return 0


def cmd_render(trace_path: Path, table_path: Path, episode: int) -> int:
    """Print the frames of one episode of a trace file over its table's grid."""
    for path in (trace_path, table_path):
        if not path.exists():
            raise EmptyInput(f"file not found: {path}")
    traces = metrics.read_trace_csv(trace_path)
    if not (0 <= episode < len(traces)):
        raise ConfigError(f"{trace_path} has no episode {episode} "
                          f"(it holds episodes 0..{len(traces) - 1})")
    table = _load_table(table_path)
    print(rendering.render_trace(traces[episode], table))
    return 0


def cmd_export_metrics(manifest: RunManifest) -> int:
    """Recompute the metrics CSVs (and charts, with emit.plots) from the
    trace file saved by train; unlike the four stages, it clears nothing."""
    traces = metrics.read_trace_csv(_run_file(manifest.out_dir, "traces.csv"))
    series = metrics.compute_metrics(traces)
    out = manifest.out_dir
    _write_metrics(out, series, True, manifest.emit.plots)
    print(f"metrics over {len(traces)} traces -> {out / 'mean_cumulative.csv'}, "
          f"{out / 'episodic.csv'}")
    return 0


# --- helpers ---------------------------------------------------------------------


def _load_table(path: Path) -> tables.TransitionTable:
    """Read a table file the one way every command does: deserialize, then
    validate."""
    return _validated(tables.deserialize(jsondoc.read(path)), f"table {path}")


def _validated(table: tables.TransitionTable, what: str) -> tables.TransitionTable:
    violations = tables.validate(table)
    if violations:
        raise SchemaError(f"{what} failed validation: " + "; ".join(violations))
    return table


def _write_metrics(out: Path, series: metrics.MetricsSeries, csvs: bool,
                   plots: bool) -> None:
    """The metrics CSVs and line charts, as train and export-metrics write them."""
    if csvs:
        metrics.write_mean_cumulative_csv(out / "mean_cumulative.csv", series)
        metrics.write_episodic_csv(out / "episodic.csv", series)
    if plots:
        metrics.write_line_chart_svg(
            out / "mean_cumulative.svg", range(1, len(series.means) + 1), series.means,
            "Mean cumulative reward", "step", "mean cumulative reward",
        )
        metrics.write_line_chart_svg(
            out / "episodic.svg", range(len(series.totals)), series.totals,
            "Episodic reward", "episode", "total reward",
        )


def _clear_outputs(out: Path, stage: str) -> Path:
    """Create the output directory; remove this and every later stage's files."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"output directory {out} is a file, or lies under one") from None
    stages = list(OUTPUTS)
    for later in stages[stages.index(stage):]:
        for path in (out / name for name in OUTPUTS[later]):
            try:
                path.unlink(missing_ok=True)
            except IsADirectoryError:
                raise ConfigError(f"output {path} is a directory, not a file") from None
    return out


def _run_file(out: Path, name: str) -> Path:
    """An earlier stage's output file, which must exist."""
    path = out / name
    if not path.exists():
        stage = next(stage for stage, names in OUTPUTS.items() if name in names)
        raise EmptyInput(f"{path} missing; run `promo-gym {stage}` first")
    return path


def _write_text(path: Path, text: str) -> None:
    with ingest._open_output(path) as handle:
        handle.write(text + ("" if text.endswith("\n") else "\n"))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
