"""Tabular MDPs as explicit transition tables.

A table maps every (state, action) pair to an ordered list of
(probability, next_state, reward, done) outcomes. The same structure
drives sampling environments, the value-iteration oracle, and the
on-disk JSON document format.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable

from .envcore import DiscreteSpace, RngStream, format_grid
from .errors import (
    InvalidAction,
    InvalidState,
    NoLayout,
    ParseError,
    SchemaError,
    SteppedAfterDone,
)

PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TransitionEntry:
    """One possible outcome of taking an action in a state."""

    probability: float
    next_state: int
    reward: float
    done: bool


@dataclass
class TransitionTable:
    """Complete tabular MDP: dynamics, initial distribution, optional geometry.

    entries[s][a] is the ordered outcome list for state s, action a.
    layout, when present, is (rows, width) grid geometry with
    state = row * width + col.
    """

    n_states: int
    n_actions: int
    entries: dict[int, dict[int, list[TransitionEntry]]]
    initial_distribution: dict[int, float]
    layout: tuple[int, int] | None = None

    def terminal_states(self) -> set[int]:
        """States whose every outcome ends the episode; their Q rows stay 0."""
        out = set()
        for s in range(self.n_states):
            acts = self.entries.get(s, {})
            if acts and all(
                entries and all(e.done for e in entries) for entries in acts.values()
            ):
                out.add(s)
        return out

    def goal_states(self) -> set[int]:
        """States entered by a terminating transition with positive reward."""
        out = set()
        for acts in self.entries.values():
            for entries in acts.values():
                for e in entries:
                    if e.done and e.reward > 0:
                        out.add(e.next_state)
        return out


def validate(table: TransitionTable) -> list[str]:
    """Check every table invariant; returns one message per violation.

    A valid table yields an empty list. Violations carry (state, action)
    coordinates so a bad builder can be pinpointed.
    """
    violations: list[str] = []
    if table.n_states < 1:
        violations.append(f"n_states must be >= 1, got {table.n_states}")
    if table.n_actions < 1:
        violations.append(f"n_actions must be >= 1, got {table.n_actions}")

    for s in range(table.n_states):
        if s not in table.entries:
            violations.append(f"state {s}: missing from entries")
            continue
        for a in range(table.n_actions):
            if a not in table.entries[s]:
                violations.append(f"state {s}, action {a}: missing")
                continue
            entries = table.entries[s][a]
            if not entries:
                violations.append(f"state {s}, action {a}: empty outcome list")
                continue
            mass = 0.0
            for i, e in enumerate(entries):
                if not (0.0 < e.probability <= 1.0):
                    violations.append(
                        f"state {s}, action {a}, entry {i}: probability "
                        f"{e.probability} not in (0, 1]"
                    )
                if not (0 <= e.next_state < table.n_states):
                    violations.append(
                        f"state {s}, action {a}, entry {i}: next state "
                        f"{e.next_state} out of range"
                    )
                if not math.isfinite(e.reward):
                    violations.append(
                        f"state {s}, action {a}, entry {i}: reward not finite"
                    )
                mass += e.probability
            if abs(mass - 1.0) > PROB_SUM_TOL:
                violations.append(
                    f"state {s}, action {a}: probability mass {mass!r} != 1"
                )
    for s in table.entries:
        if not (0 <= s < table.n_states):
            violations.append(f"state {s}: index out of range")

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
        if rows * width != table.n_states:
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
    return _inverse_cdf(table.entries[state][action], _ENTRY_PROBABILITY, rng)


def sample_initial_state(table: TransitionTable, rng: RngStream) -> int:
    """Draw an initial state; single-point distributions skip the rng."""
    items = sorted(table.initial_distribution.items())
    return _inverse_cdf(items, _ITEM_PROBABILITY, rng)[0]


_ENTRY_PROBABILITY = attrgetter("probability")
_ITEM_PROBABILITY = itemgetter(1)


def _inverse_cdf(outcomes: list, probability: Callable[[object], float],
                 rng: RngStream):
    """One uniform draw mapped through the cumulative probabilities, in
    listed order. A single outcome is returned without drawing; the last
    outcome also catches float mass that sums to just under 1."""
    if len(outcomes) == 1:
        return outcomes[0]
    u = rng.random()
    acc = 0.0
    for outcome in outcomes:
        acc += probability(outcome)
        if u < acc:
            return outcome
    return outcomes[-1]


class TabularEnv:
    """Sampling environment over a validated TransitionTable.

    The Gym contract: reset() starts an episode and returns the initial
    state; step() samples exactly one transition and returns its table
    entry, and is an error once the episode has finished; render() is a
    pure function of the current state. Holds the episode cursor
    (current state, step count, done flag); a single instance is
    single-threaded, distinct instances share nothing mutable.
    """

    def __init__(self, table: TransitionTable):
        self.table = table
        self.action_space = DiscreteSpace(table.n_actions)
        self.observation_space = DiscreteSpace(table.n_states)
        self._goals = frozenset(table.goal_states())
        self.current_state: int | None = None
        self.steps_taken = 0
        self.episode_done = False

    def reset(self, rng: RngStream) -> int:
        self.current_state = sample_initial_state(self.table, rng)
        self.steps_taken = 0
        self.episode_done = False
        return self.current_state

    def step(self, action: int, rng: RngStream) -> TransitionEntry:
        if self.current_state is None:
            raise SteppedAfterDone("step() before reset()")
        if self.episode_done:
            raise SteppedAfterDone("step() on a finished episode; call reset()")
        outcome = step_sample(self.table, self.current_state, action, rng)
        self.current_state = outcome.next_state
        self.steps_taken += 1
        self.episode_done = outcome.done
        return outcome

    def render(self) -> str:
        if self.table.layout is None:
            raise NoLayout("table registered without renderable geometry")
        rows, width = self.table.layout
        return format_grid(rows, width, self.current_state, self._goals)


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
    doc["P"] = {
        str(s): {
            str(a): [
                [e.probability, e.next_state, e.reward, e.done]
                for e in table.entries[s][a]
            ]
            for a in sorted(table.entries[s])
        }
        for s in sorted(table.entries)
    }
    return json.dumps(doc, indent=1)


# the exact types json.loads gives a number; bool, a subclass of int, is excluded
_JSON_NUMBER = (int, float)


def deserialize(text: str) -> TransitionTable:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")

    for key in ("n_states", "n_actions", "initial_distribution", "P"):
        if key not in doc:
            raise SchemaError(f"missing required field {key!r}")
    n_states = doc["n_states"]
    n_actions = doc["n_actions"]
    if not isinstance(n_states, int) or not isinstance(n_actions, int):
        raise SchemaError("n_states and n_actions must be integers")

    if not isinstance(doc["initial_distribution"], dict):
        raise SchemaError("initial_distribution must be an object keyed by state index")
    initial = {}
    for key, p in doc["initial_distribution"].items():
        s = _parse_index(key, n_states, "initial_distribution")
        if type(p) not in _JSON_NUMBER:
            raise SchemaError(f"initial_distribution: probability {p!r} for state {s} "
                              "is not a number")
        initial[s] = float(p)

    layout = None
    if "layout" in doc and doc["layout"] is not None:
        lay = doc["layout"]
        if not isinstance(lay, dict) or "rows" not in lay or "width" not in lay:
            raise SchemaError("layout must carry rows and width")
        layout = (lay["rows"], lay["width"])
        if any(type(n) is not int for n in layout):
            raise SchemaError(f"layout rows and width must be integers, got {layout}")

    entries: dict[int, dict[int, list[TransitionEntry]]] = {}
    P = doc["P"]
    if not isinstance(P, dict):
        raise SchemaError("P must be an object keyed by state index")
    for s_key, actions in P.items():
        s = _parse_index(s_key, n_states, "P")
        if not isinstance(actions, dict):
            raise SchemaError(f"state {s}: actions must be an object")
        entries[s] = {}
        for a_key, rows in actions.items():
            a = _parse_index(a_key, n_actions, f"state {s}")
            if not isinstance(rows, list):
                raise SchemaError(f"state {s}, action {a}: outcomes must be an array")
            parsed = []
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != 4:
                    raise SchemaError(
                        f"state {s}, action {a}, entry {i}: expected "
                        "[probability, next_state, reward, done]"
                    )
                prob, nxt, rew, done = row
                if type(prob) not in _JSON_NUMBER or type(rew) not in _JSON_NUMBER:
                    raise SchemaError(
                        f"state {s}, action {a}, entry {i}: probability and reward "
                        "must be numbers"
                    )
                if not isinstance(nxt, int) or isinstance(nxt, bool):
                    raise SchemaError(
                        f"state {s}, action {a}, entry {i}: next state must be an integer"
                    )
                if not isinstance(done, bool):
                    raise SchemaError(
                        f"state {s}, action {a}, entry {i}: done must be a boolean"
                    )
                parsed.append(TransitionEntry(float(prob), nxt, float(rew), done))
            entries[s][a] = parsed
    for s in range(n_states):
        if s not in entries:
            raise SchemaError(f"state {s}: missing from P")
        for a in range(n_actions):
            if a not in entries[s]:
                raise SchemaError(f"state {s}: action {a} missing")

    return TransitionTable(
        n_states=n_states,
        n_actions=n_actions,
        entries=entries,
        initial_distribution=initial,
        layout=layout,
    )


def _parse_index(key: str, bound: int, where: str) -> int:
    try:
        idx = int(key)
    except (TypeError, ValueError):
        raise SchemaError(f"{where}: key {key!r} is not an integer index") from None
    if not (0 <= idx < bound):
        raise SchemaError(f"{where}: index {idx} out of range 0..{bound - 1}")
    return idx
