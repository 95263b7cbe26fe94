"""Run manifests: one JSON document that pins an entire reproducible run.

A manifest names the input files, the environment to build, the learner
configuration, the output directory, and which artifacts to emit.
Relative paths resolve against the manifest file's own directory, so a
manifest plus its inputs is a portable, replayable unit.

The dataclasses below are the schema: each section is one dataclass
(learner is LearnerConfig), its field names are the section's keys, and
each field's type says how its value is read and written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import date
from pathlib import Path
from typing import get_args, get_type_hints

from . import jsondoc
from .errors import ConfigError
from .ingest import iso_date
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
    return json.dumps(manifest, indent=1, default=_jsonable)


def _jsonable(value):
    """The JSON form of a manifest value json.dumps cannot write itself."""
    if isinstance(value, PromoGridSpec):
        return json.loads(spec_to_json(value))
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, (Path, date)):
        return str(value)  # a date in ISO-8601 form
    raise TypeError(f"no JSON form for {value!r}")


def load_manifest(path: str | Path) -> RunManifest:
    path = Path(path)
    try:
        text = jsondoc.read(path)
    except FileNotFoundError:
        raise ConfigError(f"manifest not found: {path}") from None
    manifest = _section(RunManifest, jsondoc.loads(text, str(path)), "manifest")
    kind = manifest.environment.kind
    if kind not in ENV_KINDS:
        raise ConfigError(f"environment kind {kind!r} not one of {ENV_KINDS}")
    # relative paths, the default out_dir's too, resolve against the
    # manifest's directory; every input file named must exist up front,
    # while out_dir is created later
    for section in (manifest, manifest.inputs, manifest.environment):
        for f in fields(section):
            ref = getattr(section, f.name)
            if isinstance(ref, Path):
                ref = path.parent / ref  # an absolute ref replaces the directory
                setattr(section, f.name, ref)
                if section is not manifest and not ref.exists():
                    raise ConfigError(f"manifest references a missing file: {ref}")
    return manifest


def _section(cls, doc, what: str):
    """cls, a section dataclass, from its JSON object: each key names a
    field and is read as the field's type says; a missing key keeps the
    field's default."""
    types = get_type_hints(cls)
    doc = jsondoc.record(doc, what, optional=types, error=ConfigError)
    return cls(**{key: _value(types[key], value, key) for key, value in doc.items()})


def _value(kind, value, key: str):
    """A manifest value of type kind."""
    if type(None) in get_args(kind):  # X | None
        if value is None:
            return None
        kind = get_args(kind)[0]
    if kind is Path:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a path string, got {value!r}")
        return Path(value)
    if kind is bool:
        return jsondoc.boolean(value, key, ConfigError)
    if kind is date:
        try:
            return iso_date(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {key}: {exc}") from None
    if kind is PromoGridSpec:
        return spec_from_json(json.dumps(value))
    if is_dataclass(kind):
        return _section(kind, value, key)
    return value  # the kind name, and the learner's numbers, which LearnerConfig checks
