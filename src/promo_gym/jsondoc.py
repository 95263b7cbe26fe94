"""How a JSON document is read: the one statement of what counts as a JSON
object, integer, number, boolean and index key.

Every loader (the transition table, q-table, binning model, grid spec and
run manifest) reads its document through these rules. Each check takes the
error type its loader reports: SchemaError for artifacts, ConfigError for
the manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import ParseError, SchemaError

# The exact types json.loads gives each kind of value. bool is a subclass
# of int, and a JSON true or false is neither an integer nor a number.
INTEGER = (int,)
NUMBER = (int, float)
BOOLEAN = (bool,)


def read(path: Path) -> str:
    """A JSON file's text; a file that is not UTF-8, or a directory, raises
    ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except IsADirectoryError:
        raise ParseError(f"{path}: a directory, not a JSON file") from None


def loads(text: str, where: str = "") -> object:
    """Parse JSON text; text that is not JSON raises ParseError, with its
    line and column when the parser gives them."""
    prefix = f"{where}: " if where else ""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(prefix + exc.msg, line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, deep nesting
        raise ParseError(f"{prefix}{exc}") from exc


def obj(value, what: str, error=SchemaError) -> dict:
    if type(value) is not dict:
        raise error(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def record(value, what: str, required=(), optional=(), error=SchemaError) -> dict:
    """A JSON object whose keys are all in required or optional and which
    holds every required one."""
    obj(value, what, error)
    unknown = value.keys() - {*required, *optional}
    if unknown:
        raise error(f"{what}: unknown keys {sorted(unknown)}")
    for key in required:
        if key not in value:
            raise error(f"{what}: missing required field {key!r}")
    return value


def array(value, what: str, error=SchemaError) -> list:
    if type(value) is not list:
        raise error(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def integer(value, what: str, error=SchemaError) -> int:
    if type(value) not in INTEGER:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def number(value, what: str, error=SchemaError) -> float:
    """A JSON number as a float; an integer beyond float range is an error."""
    if type(value) not in NUMBER:
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{what}: number out of range") from None


def boolean(value, what: str, error=SchemaError) -> bool:
    if type(value) not in BOOLEAN:
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def index(key: str, bound: int, what: str, error=SchemaError) -> int:
    """The index an object key names: the canonical decimal of an integer in
    0..bound-1, so that "00", "+0" and " 0" name no index and no two keys
    name the same one."""
    try:
        i = int(key)
    except ValueError:
        i = None
    if i is None or str(i) != key:
        raise error(f"{what}: key {key!r} is not a canonical integer index")
    if not 0 <= i < bound:
        raise error(f"{what}: index {i} out of range 0..{bound - 1}")
    return i
