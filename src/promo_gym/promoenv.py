"""Promotional-forecasting MDP: inventory rows x weekly channel columns.

States live on a grid with a fixed column stride of 10: columns 0..6
are the days of the week (Monday first) and columns 7..9 are auxiliary
event channels. Rows are discretized inventory/sales levels, one per
sales bin. Four actions:

    0 realign  -- jump uniformly to one of the row's available channels
    1 lower    -- drop one inventory row (clamped at the bottom)
    2 increase -- raise one inventory row (clamped at the top)
    3 forecast -- commit: +goal reward and episode end on a goal cell,
                  a costly self-loop anywhere else

Only realign is stochastic. The action numbering follows the stride
arithmetic of the transition rows this module reproduces: action 1
moves -10 in state index, action 2 moves +10, action 3 self-loops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date, timedelta

from . import jsondoc
from .binning import N_BINS, BinningModel, assign_bin
from .errors import NoPromoInHorizon, SchemaError, SpecError
from .ingest import DailySalesRecord, PromoPlanRecord
from .tables import TransitionTable

GRID_WIDTH = 10
N_DAY_COLUMNS = 7
N_ACTIONS = 4

REALIGN, LOWER, INCREASE, FORECAST = range(N_ACTIONS)
ACTION_NAMES = {REALIGN: "realign", LOWER: "lower", INCREASE: "increase",
                FORECAST: "forecast"}

DEFAULT_STEP_REWARD = -1.0
DEFAULT_FORECAST_FAIL_REWARD = -10.0
DEFAULT_GOAL_REWARD = 20.0


@dataclass
class PromoGridSpec:
    """Layout parameters that compile to a promo transition table.

    avail maps each row to the set of columns holding an available
    promotional channel; goals are (row, column) cells where a forecast
    succeeds; initial_states seed the episode start distribution.
    """

    rows: int
    avail: dict[int, frozenset[int]]
    goals: frozenset[tuple[int, int]] = frozenset()
    initial_states: frozenset[tuple[int, int]] = frozenset()
    step_reward: float = DEFAULT_STEP_REWARD
    forecast_fail_reward: float = DEFAULT_FORECAST_FAIL_REWARD
    goal_reward: float = DEFAULT_GOAL_REWARD

    def state_index(self, row: int, col: int) -> int:
        return row * GRID_WIDTH + col

    def check(self) -> None:
        """Raise SpecError on the first violated invariant."""
        if self.rows < 1:
            raise SpecError(f"rows must be >= 1, got {self.rows}")
        for r in range(self.rows):
            cols = self.avail.get(r)
            if not cols:
                raise SpecError(f"row {r}: empty availability set")
            for c in cols:
                if not (0 <= c < GRID_WIDTH):
                    raise SpecError(f"row {r}: column {c} out of range")
        for r in self.avail:
            if not (0 <= r < self.rows):
                raise SpecError(f"availability for row {r} out of range")
        for r, c in self.goals:
            if not (0 <= r < self.rows):
                raise SpecError(f"goal row {r} out of range")
            if c not in self.avail.get(r, frozenset()):
                raise SpecError(f"goal ({r}, {c}): column {c} not available in row {r}")
        if not self.initial_states:
            raise SpecError("initial_states must be non-empty")
        for r, c in self.initial_states:
            if not (0 <= r < self.rows and 0 <= c < GRID_WIDTH):
                raise SpecError(f"initial state ({r}, {c}) out of range")


def build_promo_mdp(spec: PromoGridSpec) -> TransitionTable:
    """Compile a grid spec into a full transition table.

    Every state gets all four actions. Row moves clamp at the grid edge
    via a self-transition so the table stays total. A successful
    forecast terminates on the goal cell itself; non-forecast actions at
    a goal cell behave like anywhere else, so an agent must learn to
    commit rather than wander off.
    """
    spec.check()
    pairs = []  # in k order: state-major, then action
    for r in range(spec.rows):
        avail = sorted(spec.avail[r])
        fan = 1.0 / len(avail)
        for c in range(GRID_WIDTH):
            s = spec.state_index(r, c)
            lower_row = r - 1 if r > 0 else r
            raise_row = r + 1 if r < spec.rows - 1 else r
            if (r, c) in spec.goals:
                forecast = (1.0, s, spec.goal_reward, True)
            else:
                forecast = (1.0, s, spec.forecast_fail_reward, False)
            pairs.extend([  # REALIGN, LOWER, INCREASE, FORECAST
                [(fan, spec.state_index(r, c2), spec.step_reward, False) for c2 in avail],
                [(1.0, spec.state_index(lower_row, c), spec.step_reward, False)],
                [(1.0, spec.state_index(raise_row, c), spec.step_reward, False)],
                [forecast],
            ])

    starts = sorted(spec.state_index(r, c) for r, c in spec.initial_states)
    weight = 1.0 / len(starts)
    return TransitionTable.compile(
        spec.rows * GRID_WIDTH,
        N_ACTIONS,
        pairs,
        initial_distribution={s: weight for s in starts},
        layout=(spec.rows, GRID_WIDTH),
    )


# --- data-driven spec derivation -------------------------------------------

SEASONAL_HORIZON_DAYS = 27  # target week plus three weeks of lookahead
TRAILING_WEEKS = 4


def derive_spec_from_data(series: list[DailySalesRecord], bins: BinningModel,
                          promos: list[PromoPlanRecord], target_week: date,
                          allow_empty_promos: bool = False) -> PromoGridSpec:
    """Derive the weekly forecasting grid for one target week from data.

    Day columns come from promotions active inside the week; seasonal
    promotions falling after the week but inside the lookahead horizon
    claim auxiliary columns 7..9. Each promotion contributes a goal at
    (sales bin of its realized or target units, its channel column).
    The episode starts at Monday's column on the row given by the
    lower median of the trailing four Mondays' unit sales.
    """
    monday = target_week - timedelta(days=target_week.weekday())
    week = [monday + timedelta(days=i) for i in range(7)]
    horizon_end = monday + timedelta(days=SEASONAL_HORIZON_DAYS)

    scope = {(rec.store_id, rec.product_id) for rec in series}
    relevant = [p for p in promos if (p.store_id, p.product_id) in scope]

    def active_on(promo: PromoPlanRecord, day: date) -> bool:
        return promo.promo_start_date <= day <= promo.promo_end_date

    week_promos = [p for p in relevant if any(active_on(p, d) for d in week)]
    day_cols = sorted({d.weekday() for d in week for p in week_promos
                       if active_on(p, d)})

    seasonal = [
        p for p in relevant
        if "season" in p.promo_type.casefold()
        and p not in week_promos
        and p.promo_start_date <= horizon_end
        and p.promo_end_date > week[-1]
    ]
    aux_events = sorted({p.event_id for p in seasonal})[: GRID_WIDTH - N_DAY_COLUMNS]
    aux_col = {event: N_DAY_COLUMNS + i for i, event in enumerate(aux_events)}

    avail_cols = frozenset(day_cols) | frozenset(aux_col.values())
    goals: set[tuple[int, int]] = set()
    if not avail_cols:
        if not allow_empty_promos:
            raise NoPromoInHorizon(
                f"no promotional channel in the week of {monday.isoformat()} "
                "or its lookahead horizon (pass allow_empty_promos to model a "
                "promotion-free week)"
            )
        avail_cols = frozenset(range(N_DAY_COLUMNS))
    else:
        units_by_day: dict[tuple[str, str, date], int] = {
            (rec.store_id, rec.product_id, rec.date): rec.units_sold for rec in series
        }
        for promo in week_promos:
            promo_day = max(promo.promo_start_date, monday)
            goals.add((_goal_row(promo, promo_day, units_by_day, bins),
                       promo_day.weekday()))
        for promo in seasonal:
            if promo.event_id not in aux_col:
                continue
            goals.add((_goal_row(promo, promo.promo_start_date, units_by_day, bins),
                       aux_col[promo.event_id]))

    start_row = _trailing_median_bin(series, bins, monday)
    return PromoGridSpec(
        rows=N_BINS,
        avail={r: avail_cols for r in range(N_BINS)},
        goals=frozenset(goals),
        initial_states=frozenset({(start_row, 0)}),
    )


def _goal_row(promo: PromoPlanRecord, promo_day: date,
              units_by_day: dict[tuple[str, str, date], int],
              bins: BinningModel) -> int:
    realized = units_by_day.get((promo.store_id, promo.product_id, promo_day))
    if realized is not None:
        units = realized
    elif promo.offer_price > 0:
        units = promo.promo_target_amount / promo.offer_price
        # an infinite quotient exceeds every boundary: assign_bin's top bin
        units = round(units) if math.isfinite(units) else units
    else:
        units = promo.offer_qty
    return assign_bin(bins, units)


def _trailing_median_bin(series: list[DailySalesRecord], bins: BinningModel,
                         monday: date) -> int:
    """Lower median of total units on the four Mondays before the week."""
    mondays = {monday - timedelta(weeks=k) for k in range(1, TRAILING_WEEKS + 1)}
    by_day: dict[date, int] = {}
    for rec in series:
        if rec.date in mondays:
            by_day[rec.date] = by_day.get(rec.date, 0) + rec.units_sold
    if not by_day:
        return assign_bin(bins, 0)
    totals = sorted(by_day.values())
    return assign_bin(bins, totals[(len(totals) - 1) // 2])


# --- spec document format ---------------------------------------------------


def spec_to_json(spec: PromoGridSpec) -> str:
    doc = {
        "rows": spec.rows,
        "width": GRID_WIDTH,
        "avail": {str(r): sorted(spec.avail[r]) for r in sorted(spec.avail)},
        "goals": sorted([r, c] for r, c in spec.goals),
        "step_reward": spec.step_reward,
        "forecast_fail_reward": spec.forecast_fail_reward,
        "goal_reward": spec.goal_reward,
        "initial_states": sorted([r, c] for r, c in spec.initial_states),
    }
    return json.dumps(doc, indent=1)


def spec_from_json(text: str) -> PromoGridSpec:
    doc = jsondoc.record(jsondoc.loads(text), "grid spec",
                         ("rows", "avail", "initial_states"),
                         ("width", "goals", "step_reward", "forecast_fail_reward",
                          "goal_reward"))
    rows = jsondoc.integer(doc["rows"], "grid spec rows")
    avail = {}
    for key, cols in jsondoc.obj(doc["avail"], "grid spec avail").items():
        r = jsondoc.index(key, rows, "grid spec avail")
        avail[r] = frozenset(jsondoc.integer(c, f"grid spec avail row {r}")
                             for c in jsondoc.array(cols, f"grid spec avail row {r}"))
    # the width is fixed; a document may still name it
    width = jsondoc.integer(doc.get("width", GRID_WIDTH), "grid spec width")
    if width != GRID_WIDTH:
        raise SpecError(f"width is fixed at {GRID_WIDTH}, got {width}")
    spec = PromoGridSpec(
        rows=rows,
        avail=avail,
        goals=_cells(doc.get("goals", []), "grid spec goals"),
        initial_states=_cells(doc["initial_states"], "grid spec initial_states"),
        step_reward=jsondoc.number(doc.get("step_reward", DEFAULT_STEP_REWARD),
                                   "grid spec step_reward"),
        forecast_fail_reward=jsondoc.number(
            doc.get("forecast_fail_reward", DEFAULT_FORECAST_FAIL_REWARD),
            "grid spec forecast_fail_reward",
        ),
        goal_reward=jsondoc.number(doc.get("goal_reward", DEFAULT_GOAL_REWARD),
                                   "grid spec goal_reward"),
    )
    spec.check()
    return spec


def _cells(value, what: str) -> frozenset[tuple[int, int]]:
    """[row, column] pairs as a set of tuples."""
    cells = set()
    for cell in jsondoc.array(value, what):
        if len(jsondoc.array(cell, what)) != 2:
            raise SchemaError(f"{what}: {cell!r} is not a [row, column] pair")
        cells.add((jsondoc.integer(cell[0], what), jsondoc.integer(cell[1], what)))
    return frozenset(cells)
