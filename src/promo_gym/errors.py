"""Exception types shared across the toolkit.

Everything user-facing derives from PromoGymError so the CLI can map
"bad input or config" to exit code 2 while genuine bugs escape as
ordinary tracebacks (exit code 1).
"""

from __future__ import annotations


class PromoGymError(Exception):
    """Base class for all expected, user-correctable failures."""


class InvalidAction(PromoGymError):
    """Action index outside the environment's action space."""


class InvalidState(PromoGymError):
    """State index outside the table: a step's or a trace's."""


class SteppedAfterDone(PromoGymError):
    """step() called on an episode that already terminated."""


class NoLayout(PromoGymError):
    """render() requested on an environment without grid geometry."""


class ParseError(PromoGymError):
    """Malformed document; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(PromoGymError):
    """Well-formed document violating the expected schema."""


class HeaderMismatch(PromoGymError):
    """CSV header row does not match the declared schema."""


class RowError(PromoGymError):
    """Bad value in a CSV data row; carries the 1-based row number."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


class CalendarGap(PromoGymError):
    """A series date falls outside the holiday calendar's span."""


class EmptySeries(PromoGymError):
    """An operation that needs data received an empty series."""


class SpecError(PromoGymError):
    """Promo grid spec violates one of its invariants."""


class NoPromoInHorizon(PromoGymError):
    """No promotional channel found for the requested week."""


class NonFinite(PromoGymError):
    """A numeric update would produce NaN or infinity."""


class DimensionMismatch(PromoGymError):
    """Q-table and environment dimensions disagree."""


class EmptyInput(PromoGymError):
    """A stage's input is missing, empty or negative: a run file, a manifest
    field, traces or their steps, chart points, or an eval episode count."""


class ConfigError(PromoGymError):
    """Learner or manifest configuration violates an invariant."""
