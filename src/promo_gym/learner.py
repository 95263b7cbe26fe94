"""Tabular Q-learning: epsilon-greedy control with one-step TD updates.

The update is the classic

    Q[s][a] += alpha * (r + gamma * max_a' Q[s'][a'] - Q[s][a])

with terminating transitions bootstrapping zero, so terminal-state rows
stay pinned at 0. Exploration decays linearly, everything is driven by
per-episode sub-streams of one seed, and training yields each episode's
trace as it ends and keeps none, so metrics are computed in one pass.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain
from operator import add
from typing import NamedTuple, get_type_hints

import numpy as np

from . import jsondoc
from .envcore import RngStream
from .errors import ConfigError, DimensionMismatch, NonFinite, SchemaError
from .tables import TabularEnv, TransitionTable, _inverse_cdf

# leading sub-stream keys keep training and evaluation randomness disjoint
TRAIN_STREAM = 0
EVAL_STREAM = 1


@dataclass
class QTable:
    """State x action action-value estimates, zero-initialized. values[s]
    is state s's row as a list of Python floats, on which the learner's
    one-cell reads and writes are fastest; rows or an array may be given."""

    n_states: int
    n_actions: int
    values: list[list[float]] | None = None

    def __post_init__(self) -> None:
        if self.values is None:
            self.values = [[0.0] * self.n_actions for _ in range(self.n_states)]
        else:
            values = np.asarray(self.values, dtype=float)
            if values.shape != (self.n_states, self.n_actions):
                raise DimensionMismatch(
                    f"values shape {values.shape} != "
                    f"({self.n_states}, {self.n_actions})"
                )
            self.values = values.tolist()


@dataclass(frozen=True)
class LearnerConfig:
    """Training hyperparameters; all surfaced, all validated.

    epsilon decays linearly from epsilon_start to epsilon_end over
    epsilon_decay_episodes (default: the first half of training), then
    holds.
    """

    alpha: float = 0.1
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int | None = None
    episodes: int = 5000
    max_steps_per_episode: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in get_type_hints(LearnerConfig).items():
            value = getattr(self, name)
            if kind is float:
                jsondoc.number(value, name, ConfigError)
            elif kind is int or value is not None:  # an int | None field may be None
                jsondoc.integer(value, name, ConfigError)
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha}")
        if not (0.0 <= self.gamma < 1.0):
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        for name in ("epsilon_start", "epsilon_end"):
            eps = getattr(self, name)
            if not (0.0 <= eps <= 1.0):
                raise ConfigError(f"{name} must be in [0, 1], got {eps}")
        if self.epsilon_end > self.epsilon_start:
            raise ConfigError("epsilon_end must not exceed epsilon_start")
        if self.episodes < 1:
            raise ConfigError(f"episodes must be >= 1, got {self.episodes}")
        if self.max_steps_per_episode < 1:
            raise ConfigError("max_steps_per_episode must be >= 1")
        if self.epsilon_decay_episodes is not None and self.epsilon_decay_episodes < 1:
            raise ConfigError("epsilon_decay_episodes must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    def decay_episodes(self) -> int:
        if self.epsilon_decay_episodes is not None:
            return self.epsilon_decay_episodes
        return max(1, self.episodes // 2)


def epsilon_schedule(config: LearnerConfig, episode: int) -> float:
    """Exploration rate for a 0-based episode index."""
    span = config.decay_episodes()
    frac = min(1.0, episode / span)
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


class TraceStep(NamedTuple):
    state: int
    action: int
    reward: float
    next_state: int
    done: bool


@dataclass
class EpisodeTrace:
    """One episode's step rewards, and whether the step cap rather than its
    last step ended it, plus its steps when they were recorded. steps is
    None for an episode run without recording them, so it cannot pass for
    an episode of no steps."""

    steps: list[TraceStep] | None
    rewards: list[float]
    truncated: bool

    @classmethod
    def from_steps(cls, steps: list[TraceStep]) -> "EpisodeTrace":
        """The trace of the recorded steps; truncated unless the last one ends it."""
        return cls(steps, [s.reward for s in steps], not (steps and steps[-1].done))

    def running_totals(self) -> list[float]:
        """The reward total after each step. Rewards are summed in step
        order starting at 0.0, so a -0.0 reward totals 0.0."""
        return list(accumulate(self.rewards, initial=0.0))[1:]

    @property
    def total_reward(self) -> float:
        """The total after the last step, summed as running_totals() sums."""
        return reduce(add, self.rewards, 0.0)


def act(q: QTable, state: int, epsilon: float, rng: RngStream) -> int:
    """Epsilon-greedy: explore uniformly with probability epsilon, else
    take the lowest-index argmax of the state's Q row."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.integers(q.n_actions)
    row = q.values[state]
    return row.index(max(row))


def q_update(q: QTable, s: int, a: int, r: float, s_next: int, done: bool,
             alpha: float, gamma: float) -> float:
    """Apply one TD update in place; returns the new value at (s, a)."""
    row = q.values[s]
    old = row[a]
    # among tied zeros builtin max may keep a different signed zero than
    # np.max; the stored value comes out bit-identical either way
    target = r if done else r + gamma * max(q.values[s_next])
    new = old + alpha * (target - old)
    if not math.isfinite(new):
        raise NonFinite(f"update at ({s}, {a}) produced {new}")
    row[a] = new
    return new


def greedy_policy(q: QTable) -> np.ndarray:
    """Per-state lowest-index argmax action."""
    return np.argmax(np.reshape(q.values, (q.n_states, q.n_actions)), axis=1)


def run_episode(env: TabularEnv, q: QTable, config: LearnerConfig,
                epsilon: float, rng: RngStream, learning: bool,
                record_steps: bool = True) -> EpisodeTrace:
    """Roll one episode: act, step, (optionally) update, until done or
    the step cap. With learning=False the Q-table is left untouched; with
    record_steps=False the trace keeps only its rewards."""
    state = env.reset(rng)
    steps: list[TraceStep] | None = [] if record_steps else None
    rewards: list[float] = []
    done = False
    for _ in range(config.max_steps_per_episode):
        action = act(q, state, epsilon, rng)
        _, next_state, reward, done = env.step(action, rng)
        if learning:
            q_update(q, state, action, reward, next_state, done,
                     config.alpha, config.gamma)
        if steps is not None:
            steps.append(TraceStep(state, action, reward, next_state, done))
        rewards.append(reward)
        state = next_state
        if done:
            break
    return EpisodeTrace(steps, rewards, not done)


def train(env: TabularEnv, config: LearnerConfig, q: QTable,
          record_steps: bool = True) -> Iterator[EpisodeTrace]:
    """Train q in place, yielding each episode's trace as it ends;
    reproducible from config.seed alone. record_steps=False leaves the
    steps out of the traces, for a caller that reads only their rewards.

    Episode i draws from the sub-stream (seed, 0, i), so its randomness
    is independent of every other episode's length. Each episode is
    run_episode(..., learning=True) over env, with act, env.reset and
    env.step unrolled into one loop: the same draws, steps and updates.
    """
    table = env.table
    if table.n_states < 1 or table.n_actions < 1:
        raise DimensionMismatch("environment spaces must be non-empty")
    _check_shape(q, table)
    pairs, initial, n_actions = table.pairs, env.initial_rows, table.n_actions
    values, alpha, gamma = q.values, config.alpha, config.gamma
    streams = RngStream(config.seed).substream(TRAIN_STREAM).substreams(config.episodes)
    for episode, rng in enumerate(streams):
        epsilon = epsilon_schedule(config, episode)
        state = _inverse_cdf(initial, rng)[1]
        steps: list[TraceStep] | None = [] if record_steps else None
        rewards: list[float] = []
        done = False
        for _ in range(config.max_steps_per_episode):
            if epsilon > 0.0 and rng.random() < epsilon:
                action = rng.integers(n_actions)
            else:
                row = values[state]
                action = row.index(max(row))
            _, next_state, reward, done = _inverse_cdf(pairs[state * n_actions + action],
                                                       rng)
            q_update(q, state, action, reward, next_state, done, alpha, gamma)
            if steps is not None:
                steps.append(TraceStep(state, action, reward, next_state, done))
            rewards.append(reward)
            state = next_state
            if done:
                break
        yield EpisodeTrace(steps, rewards, not done)


def _check_shape(q: QTable, table: TransitionTable) -> None:
    if (q.n_states, q.n_actions) != (table.n_states, table.n_actions):
        raise DimensionMismatch(
            f"q-table is {q.n_states}x{q.n_actions}, environment is "
            f"{table.n_states}x{table.n_actions}"
        )


def evaluate_greedy(env: TabularEnv, q: QTable, episodes: int, max_steps: int,
                    seed: int) -> dict:
    """Run greedy (epsilon = 0) episodes with learning off; summarize.

    Success means the episode terminated with a positive final reward.
    episodes = 0 yields an empty report; a mean total reward that is not
    finite raises NonFinite.
    """
    _check_shape(q, env.table)
    if episodes == 0:
        return {"episodes": 0}
    config = LearnerConfig(episodes=episodes, max_steps_per_episode=max_steps,
                           seed=seed)
    totals = []
    successes = 0
    truncations = 0
    for rng in RngStream(seed).substream(EVAL_STREAM).substreams(episodes):
        trace = run_episode(env, q, config, epsilon=0.0, rng=rng, learning=False,
                            record_steps=False)
        totals.append(trace.total_reward)
        if not trace.truncated and trace.rewards[-1] > 0:
            successes += 1
        if trace.truncated:
            truncations += 1
    # added in order from 0.0: from Python 3.12 on, builtin sum()
    # compensates, so the report's last bits would depend on the version
    mean = reduce(add, totals, 0.0) / episodes
    if not math.isfinite(mean):
        raise NonFinite(f"mean total reward over {episodes} episodes is {mean}")
    return {
        "episodes": episodes,
        "mean_total_reward": mean,
        "min_total_reward": min(totals),
        "max_total_reward": max(totals),
        "success_rate": successes / episodes,
        "truncation_rate": truncations / episodes,
    }


# --- Q-table document format ---------------------------------------------------


def qtable_to_json(q: QTable) -> str:
    return json.dumps(
        {
            "n_states": q.n_states,
            "n_actions": q.n_actions,
            "values": q.values,
        },
        indent=1,
    )


def qtable_from_json(text: str) -> QTable:
    what = "q-table document"
    doc = jsondoc.record(jsondoc.loads(text), what, ("n_states", "n_actions", "values"))
    n_states = jsondoc.integer(doc["n_states"], f"{what}: n_states")
    n_actions = jsondoc.integer(doc["n_actions"], f"{what}: n_actions")
    values = jsondoc.array(doc["values"], f"{what}: values")
    if not all(type(v) in jsondoc.NUMBER
               for row in values for v in jsondoc.array(row, f"{what}: values row")):
        raise SchemaError(f"{what}: values must be numbers")
    try:
        q = QTable(n_states, n_actions, values)
    except (OverflowError, ValueError) as exc:  # a huge integer, ragged rows
        raise SchemaError(f"{what}: {exc}") from exc
    if not all(map(math.isfinite, chain.from_iterable(q.values))):
        raise SchemaError(f"{what}: values must be finite")
    return q
