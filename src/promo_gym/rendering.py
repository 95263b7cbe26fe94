"""Text rendering of episode traces over grid-layout tables.

Promo-grid tables (width 10, 4 actions) get day-of-week column headers
and named actions; anything else falls back to numeric columns and
action indices. Each frame shows the grid after the step, the action
taken, its reward, and the running total. A terminating step with
positive reward is the successful forecast and gets flagged.
"""

from __future__ import annotations

from .errors import InvalidState, NoLayout
from .learner import EpisodeTrace
from .promoenv import ACTION_NAMES, GRID_WIDTH, N_ACTIONS
from .tables import TransitionTable

DAY_HEADERS = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun", "A7", "A8", "A9"]
_CELL_W = 4


def render_trace(trace: EpisodeTrace, table: TransitionTable) -> str:
    """Render every frame of an episode; header only for an empty trace."""
    if table.layout is None or min(table.layout) < 1:
        raise NoLayout("table registered without renderable geometry")
    rows, width = table.layout
    promo_style = width == GRID_WIDTH and table.n_actions == N_ACTIONS
    goals = table.goal_states()

    lines = [_header(width, promo_style)]
    if trace.steps is None:
        raise TypeError("the trace was run without recording its steps")
    if not trace.steps:
        return "\n".join(lines)

    start = trace.steps[0].state
    _check_state(start, table)
    lines.append(f"start  state={start} (row {start // width}, col {start % width})")
    lines.append(_frame(rows, width, start, goals))

    running = trace.running_totals()
    for i, step in enumerate(trace.steps):
        _check_state(step.next_state, table)
        if not (0 <= step.action < table.n_actions):
            raise InvalidState(f"trace step {i + 1} takes action {step.action}, "
                               f"table has 0..{table.n_actions - 1}")
        action = ACTION_NAMES[step.action] if promo_style else str(step.action)
        note = f"step {i + 1}: {action}  reward={step.reward:g}  " \
               f"total={running[i]:g}"
        if step.done and step.reward > 0:
            note += "  FORECAST ✓"
        lines.append(note)
        lines.append(_frame(rows, width, step.next_state, goals))
    return "\n".join(lines)


def _header(width: int, promo_style: bool) -> str:
    if promo_style:
        names = DAY_HEADERS[:width]
    else:
        names = [str(c) for c in range(width)]
    return "".join(name.ljust(_CELL_W) for name in names).rstrip()


def _frame(rows: int, width: int, mark: int, goals: set[int]) -> str:
    """One character per cell, padded to the header's column width: '@'
    marks the current state, 'G' a goal cell, '.' every other cell."""
    gap = " " * (_CELL_W - 1)
    return "\n".join(gap.join("@" if s == mark else "G" if s in goals else "."
                              for s in range(r * width, (r + 1) * width))
                     for r in range(rows))


def _check_state(state: int, table: TransitionTable) -> None:
    if not (0 <= state < table.n_states):
        raise InvalidState(
            f"trace references state {state}, table has 0..{table.n_states - 1}"
        )
