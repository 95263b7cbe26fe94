"""Run manifests: one JSON document that pins an entire reproducible run.

A manifest names the input files, the environment to build, the learner
configuration, the output directory, and which artifacts to emit.
Relative paths resolve against the manifest file's own directory, so a
manifest plus its inputs is a portable, replayable unit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

from .errors import ConfigError, ParseError
from .learner import LearnerConfig
from .promoenv import PromoGridSpec, spec_from_json, spec_to_json

ENV_KINDS = ("promo", "frozen-lake", "table")


@dataclass
class InputPaths:
    promo_plan: Path | None = None
    online_transactions: Path | None = None
    rx_transactions: Path | None = None
    holiday_calendar: Path | None = None
    zip_store_map: Path | None = None


@dataclass
class EnvironmentChoice:
    kind: str = "promo"
    slippery: bool = False
    table_path: Path | None = None
    grid_spec: PromoGridSpec | None = None
    grid_spec_path: Path | None = None
    target_week: date | None = None
    allow_empty_promos: bool = False


@dataclass
class EmitFlags:
    metrics: bool = True
    traces: bool = False
    plots: bool = False


@dataclass
class RunManifest:
    inputs: InputPaths = field(default_factory=InputPaths)
    environment: EnvironmentChoice = field(default_factory=EnvironmentChoice)
    learner: LearnerConfig = field(default_factory=LearnerConfig)
    out_dir: Path = Path("out")
    emit: EmitFlags = field(default_factory=EmitFlags)

    def require_inputs(self, *names: str) -> None:
        """Fail fast when a command needs input files the manifest lacks."""
        for name in names:
            path = getattr(self.inputs, name)
            if path is None:
                raise ConfigError(f"manifest does not name an input for {name!r}")
            if not Path(path).exists():
                raise ConfigError(f"input {name!r} does not exist: {path}")


def manifest_to_json(manifest: RunManifest) -> str:
    """Serialize with resolved (absolute) paths; load_manifest inverts it."""
    inputs = manifest.inputs
    env = manifest.environment
    learner = manifest.learner
    doc = {
        "inputs": {
            name: (str(value) if value is not None else None)
            for name, value in (
                ("promo_plan", inputs.promo_plan),
                ("online_transactions", inputs.online_transactions),
                ("rx_transactions", inputs.rx_transactions),
                ("holiday_calendar", inputs.holiday_calendar),
                ("zip_store_map", inputs.zip_store_map),
            )
        },
        "environment": {
            "kind": env.kind,
            "slippery": env.slippery,
            "table_path": str(env.table_path) if env.table_path else None,
            "grid_spec": (json.loads(spec_to_json(env.grid_spec))
                          if env.grid_spec else None),
            "grid_spec_path": str(env.grid_spec_path) if env.grid_spec_path else None,
            "target_week": env.target_week.isoformat() if env.target_week else None,
            "allow_empty_promos": env.allow_empty_promos,
        },
        "learner": {
            "alpha": learner.alpha,
            "gamma": learner.gamma,
            "epsilon_start": learner.epsilon_start,
            "epsilon_end": learner.epsilon_end,
            "epsilon_decay_episodes": learner.epsilon_decay_episodes,
            "episodes": learner.episodes,
            "max_steps_per_episode": learner.max_steps_per_episode,
            "seed": learner.seed,
        },
        "out_dir": str(manifest.out_dir),
        "emit": {
            "metrics": manifest.emit.metrics,
            "traces": manifest.emit.traces,
            "plots": manifest.emit.plots,
        },
    }
    return json.dumps(doc, indent=1)


def load_manifest(path: str | Path) -> RunManifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"manifest not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    base = path.parent

    def resolve(value: str | None) -> Path | None:
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"expected a path string, got {value!r}")
        p = Path(value)
        return p if p.is_absolute() else base / p

    doc = _object(doc, "manifest")
    inputs_doc = _object(doc.get("inputs", {}), "inputs")
    inputs = InputPaths(
        promo_plan=resolve(inputs_doc.get("promo_plan")),
        online_transactions=resolve(inputs_doc.get("online_transactions")),
        rx_transactions=resolve(inputs_doc.get("rx_transactions")),
        holiday_calendar=resolve(inputs_doc.get("holiday_calendar")),
        zip_store_map=resolve(inputs_doc.get("zip_store_map")),
    )

    env_doc = _object(doc.get("environment", {}), "environment")
    kind = env_doc.get("kind", "promo")
    if kind not in ENV_KINDS:
        raise ConfigError(f"environment kind {kind!r} not one of {ENV_KINDS}")
    grid_spec = None
    if env_doc.get("grid_spec") is not None:
        grid_spec = spec_from_json(json.dumps(env_doc["grid_spec"]))
    target_week = None
    if env_doc.get("target_week") is not None:
        try:
            target_week = date.fromisoformat(env_doc["target_week"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad target_week: {exc}") from None
    environment = EnvironmentChoice(
        kind=kind,
        slippery=_flag(env_doc, "slippery", False),
        table_path=resolve(env_doc.get("table_path")),
        grid_spec=grid_spec,
        grid_spec_path=resolve(env_doc.get("grid_spec_path")),
        target_week=target_week,
        allow_empty_promos=_flag(env_doc, "allow_empty_promos", False),
    )

    learner_doc = _object(doc.get("learner", {}), "learner")
    known = {
        "alpha", "gamma", "epsilon_start", "epsilon_end",
        "epsilon_decay_episodes", "episodes", "max_steps_per_episode", "seed",
    }
    unknown = set(learner_doc) - known
    if unknown:
        raise ConfigError(f"unknown learner fields: {sorted(unknown)}")
    learner = LearnerConfig(**learner_doc)

    emit_doc = _object(doc.get("emit", {}), "emit")
    emit = EmitFlags(
        metrics=_flag(emit_doc, "metrics", True),
        traces=_flag(emit_doc, "traces", False),
        plots=_flag(emit_doc, "plots", False),
    )

    out_dir = resolve(doc.get("out_dir", "out"))
    manifest = RunManifest(inputs=inputs, environment=environment, learner=learner,
                           out_dir=out_dir, emit=emit)

    # every referenced input must exist up front; out_dir is created later
    referenced = [
        inputs.promo_plan, inputs.online_transactions, inputs.rx_transactions,
        inputs.holiday_calendar, inputs.zip_store_map,
        environment.table_path, environment.grid_spec_path,
    ]
    for ref in referenced:
        if ref is not None and not Path(ref).exists():
            raise ConfigError(f"manifest references a missing file: {ref}")
    return manifest


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _flag(section: dict, key: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value
