"""Tabular MDPs as explicit transition tables.

A table keeps every outcome in four flat columns (probability,
next_state, reward, done). The outcomes of the pair (state s, action a)
are the rows starts[k]:starts[k + 1], where k = s * n_actions + a, in
listed order. The value-iteration oracle and validation read the
columns. Everything else reads a pair's rows as TransitionEntry tuples
from pairs, one list indexed by k and built from the columns once, or
through pair(): sampling and training draw from it, TabularEnv.step
returns its rows, and the on-disk JSON document nests them by state and
action.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, count
from typing import NamedTuple

import numpy as np

from .envcore import RngStream
from . import jsondoc
from .errors import InvalidAction, InvalidState, SchemaError, SteppedAfterDone
from .jsondoc import BOOLEAN, INTEGER, NUMBER

PROB_SUM_TOL = 1e-9


class TransitionEntry(NamedTuple):
    """One possible outcome of taking an action in a state: one row of
    the columns, as sampling draws it, step returns it and the document
    writes it."""

    probability: float
    next_state: int
    reward: float
    done: bool


@dataclass(eq=False)
class TransitionTable:
    """Complete tabular MDP: dynamics, initial distribution, optional geometry.

    Build one with compile(); its columns are read-only. Tables compare
    by identity; two tables hold the same MDP when serialize() gives
    both the same text. layout, when present, is (rows, width) grid
    geometry with state = row * width + col.
    """

    n_states: int
    n_actions: int
    starts: np.ndarray          # (n_states * n_actions + 1,) row offsets
    probability: np.ndarray     # float, one per outcome row
    next_state: np.ndarray      # intp
    reward: np.ndarray          # float
    done: np.ndarray            # bool
    initial_distribution: dict[int, float]
    layout: tuple[int, int] | None = None

    @classmethod
    def compile(cls, n_states: int, n_actions: int, pairs: list,
                initial_distribution: dict[int, float],
                layout: tuple[int, int] | None = None) -> "TransitionTable":
        """Compile pairs, the ordered (probability, next_state, reward, done)
        rows of every pair in k order, into the column form."""
        rows = [row for pair in pairs for row in pair]
        p, nxt, r, done = zip(*rows) if rows else ((),) * 4
        columns = (np.array([0, *accumulate(map(len, pairs))], dtype=np.intp),
                   np.array(p, dtype=float), np.array(nxt, dtype=np.intp),
                   np.array(r, dtype=float), np.array(done, dtype=bool))
        for column in columns:
            column.flags.writeable = False
        return cls(n_states, n_actions, *columns,
                   {s: float(q) for s, q in initial_distribution.items()}, layout)

    @cached_property
    def pairs(self) -> list[list[TransitionEntry]]:
        """Each pair's rows in k order, built from the columns on first use."""
        entries = list(map(TransitionEntry, self.probability.tolist(),
                           self.next_state.tolist(), self.reward.tolist(),
                           self.done.tolist()))
        starts = self.starts.tolist()
        return [entries[i:j] for i, j in zip(starts, starts[1:])]

    def pair(self, state: int, action: int) -> list[TransitionEntry]:
        """The rows of pair k = state * n_actions + action, in listed order."""
        return self.pairs[state * self.n_actions + action]

    def goal_states(self) -> set[int]:
        """States entered by a terminating transition with positive reward."""
        return set(self.next_state[self.done & (self.reward > 0)].tolist())


def validate(table: TransitionTable) -> list[str]:
    """Check every table invariant; returns one message per violation.

    A valid table yields an empty list. Violations carry (state, action)
    coordinates, and (state, action, entry) ones for a single outcome, so
    a bad builder can be pinpointed.
    """
    violations: list[str] = []
    if table.n_states < 1:
        violations.append(f"n_states must be >= 1, got {table.n_states}")
    if table.n_actions < 1:
        violations.append(f"n_actions must be >= 1, got {table.n_actions}")
    pairs = table.n_states * table.n_actions
    if len(table.starts) != pairs + 1:
        violations.append(f"{len(table.starts) - 1} outcome lists for {pairs} "
                          f"(state, action) pairs")

    starts, prob, nxt = table.starts, table.probability, table.next_state
    counts = np.diff(starts)
    pair = np.repeat(np.arange(len(counts)), counts)  # each row's pair k
    bad_p = ~((prob > 0.0) & (prob <= 1.0))
    bad_next = (nxt < 0) | (nxt >= table.n_states)
    bad_reward = ~np.isfinite(table.reward)
    mass = np.bincount(pair, weights=prob, minlength=len(counts))
    bad_mass = (counts > 0) & (np.abs(mass - 1.0) > PROB_SUM_TOL)
    bad_rows = np.bincount(pair[bad_p | bad_next | bad_reward], minlength=len(counts))
    for k in np.flatnonzero((counts == 0) | bad_mass | (bad_rows > 0)).tolist():
        s, a = divmod(k, table.n_actions)
        if counts[k] == 0:
            violations.append(f"state {s}, action {a}: empty outcome list")
            continue
        first = int(starts[k])
        for row in range(first, int(starts[k + 1])):
            where = f"state {s}, action {a}, entry {row - first}"
            if bad_p[row]:
                violations.append(f"{where}: probability {float(prob[row])} not in (0, 1]")
            if bad_next[row]:
                violations.append(f"{where}: next state {int(nxt[row])} out of range")
            if bad_reward[row]:
                violations.append(f"{where}: reward not finite")
        if bad_mass[k]:
            violations.append(
                f"state {s}, action {a}: probability mass {float(mass[k])!r} != 1"
            )

    init_mass = 0.0
    for s, p in table.initial_distribution.items():
        if not (0 <= s < table.n_states):
            violations.append(f"initial distribution: state {s} out of range")
        if not (0.0 < p <= 1.0):
            violations.append(f"initial distribution: probability {p} for state {s}")
        init_mass += p
    if abs(init_mass - 1.0) > PROB_SUM_TOL:
        violations.append(f"initial distribution: probability mass {init_mass!r} != 1")

    if table.layout is not None:
        rows, width = table.layout
        if rows < 1 or width < 1:
            violations.append(f"layout {rows}x{width}: rows and width must be >= 1")
        elif rows * width != table.n_states:
            violations.append(
                f"layout {rows}x{width} does not cover {table.n_states} states"
            )
    return violations


def step_sample(table: TransitionTable, state: int, action: int,
                rng: RngStream) -> TransitionEntry:
    """Draw one outcome for (state, action) by inverse CDF in listed order.

    Single-entry lists short-circuit without consuming randomness, so
    deterministic transitions are rng-independent.
    """
    if not (0 <= state < table.n_states):
        raise InvalidState(f"state {state} out of range 0..{table.n_states - 1}")
    if not (0 <= action < table.n_actions):
        raise InvalidAction(f"action {action} out of range 0..{table.n_actions - 1}")
    return _inverse_cdf(table.pair(state, action), rng)


def _inverse_cdf(rows: list, rng: RngStream):
    """One uniform draw mapped through the cumulative probabilities
    row[0], in listed order. A single row is returned without drawing;
    the last row also catches float mass that sums to just under 1."""
    if len(rows) == 1:
        return rows[0]
    u = rng.random()
    acc = 0.0
    for row in rows:
        acc += row[0]
        if u < acc:
            return row
    return rows[-1]


class TabularEnv:
    """Sampling environment over a validated TransitionTable.

    The Gym contract: reset() starts an episode and returns the initial
    state; step() samples exactly one transition and returns its table
    entry, and is an error once the episode has finished. Holds only the
    episode cursor (current state, done flag); a single instance is
    single-threaded, distinct instances share nothing mutable.
    """

    def __init__(self, table: TransitionTable):
        self.table = table
        # (probability, state) rows in state order, as reset draws from them
        self.initial_rows = [(p, s) for s, p in sorted(table.initial_distribution.items())]
        self.current_state: int | None = None
        self.episode_done = False

    def reset(self, rng: RngStream) -> int:
        """Draw an initial state; a single-point distribution skips the rng."""
        self.current_state = _inverse_cdf(self.initial_rows, rng)[1]
        self.episode_done = False
        return self.current_state

    def step(self, action: int, rng: RngStream) -> TransitionEntry:
        if self.current_state is None:
            raise SteppedAfterDone("step() before reset()")
        if self.episode_done:
            raise SteppedAfterDone("step() on a finished episode; call reset()")
        outcome = step_sample(self.table, self.current_state, action, rng)
        self.current_state = outcome.next_state
        self.episode_done = outcome.done
        return outcome


# --- document format -------------------------------------------------------
#
# Single JSON object: n_states, n_actions, initial_distribution (state-index
# string -> probability), optional layout {"rows": R, "width": W}, and P --
# state -> action -> array of [probability, next_state, reward, done].
# Keys ascend numerically; floats use shortest round-trip decimals.


def serialize(table: TransitionTable) -> str:
    doc: dict = {
        "n_states": table.n_states,
        "n_actions": table.n_actions,
        "initial_distribution": {
            str(s): float(p) for s, p in sorted(table.initial_distribution.items())
        },
    }
    if table.layout is not None:
        doc["layout"] = {"rows": table.layout[0], "width": table.layout[1]}
    doc["P"] = {str(s): {str(a): table.pair(s, a) for a in range(table.n_actions)}
                for s in range(table.n_states)}
    return json.dumps(doc, indent=1)


def deserialize(text: str) -> TransitionTable:
    doc = jsondoc.record(jsondoc.loads(text), "table document",
                         ("n_states", "n_actions", "initial_distribution", "P"),
                         ("layout",))
    n_states = jsondoc.integer(doc["n_states"], "n_states")
    n_actions = jsondoc.integer(doc["n_actions"], "n_actions")

    initial = {}
    for key, p in jsondoc.obj(doc["initial_distribution"],
                              "initial_distribution").items():
        s = jsondoc.index(key, n_states, "initial_distribution")
        initial[s] = jsondoc.number(p, f"initial_distribution: probability for state {s}")

    layout = None
    if doc.get("layout") is not None:
        lay = jsondoc.record(doc["layout"], "layout", ("rows", "width"))
        layout = (jsondoc.integer(lay["rows"], "layout rows"),
                  jsondoc.integer(lay["width"], "layout width"))

    # the row checks stay inline: a large table has tens of thousands of rows
    states = jsondoc.obj(doc["P"], "P")
    n_pairs = 0
    for s_key, actions in states.items():
        s = jsondoc.index(s_key, n_states, "P")
        where = f"state {s}"
        for a_key, rows in jsondoc.obj(actions, f"{where}: actions").items():
            a = jsondoc.index(a_key, n_actions, where)
            if not isinstance(rows, list):
                raise SchemaError(f"{where}, action {a}: outcomes must be an array")
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != 4:
                    raise SchemaError(
                        f"{where}, action {a}, entry {i}: expected "
                        "[probability, next_state, reward, done]"
                    )
                prob, nxt, rew, done = row
                if type(prob) not in NUMBER or type(rew) not in NUMBER:
                    raise SchemaError(
                        f"{where}, action {a}, entry {i}: probability and reward "
                        "must be numbers"
                    )
                if type(nxt) not in INTEGER:
                    raise SchemaError(
                        f"{where}, action {a}, entry {i}: next state must be an integer"
                    )
                if type(done) not in BOOLEAN:
                    raise SchemaError(
                        f"{where}, action {a}, entry {i}: done must be a boolean"
                    )
            n_pairs += 1
    # keys are distinct indices, so the count proves completeness; a gap is at k <= n_pairs
    if n_pairs < n_states * n_actions:
        s, a = next(divmod(k, n_actions) for k in count()
                    if str(k % n_actions) not in states.get(str(k // n_actions), ()))
        raise SchemaError(f"state {s}: action {a} missing")
    pairs = [states[str(s)][str(a)] for s in range(n_states) for a in range(n_actions)]

    try:
        return TransitionTable.compile(n_states, n_actions, pairs, initial, layout)
    except OverflowError as exc:  # an integer beyond float or index range
        raise SchemaError(f"number out of range: {exc}") from None
