"""Property checks that pin the learner's per-step arithmetic to numpy's.

act and q_update read Q rows as plain Python floats; these properties hold
them to the numpy reductions bit for bit, on random finite rows with
forced ties, all-zero rows and both signed zeros. A whole training run,
with and without recorded steps, is held to a reference loop over a numpy
Q array that records every step, and greedy evaluation to a summary of
recorded episodes.
"""

from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promo_gym.envcore import RngStream
from promo_gym.learner import (
    EVAL_STREAM,
    TRAIN_STREAM,
    EpisodeTrace,
    LearnerConfig,
    QTable,
    TraceStep,
    act,
    epsilon_schedule,
    evaluate_greedy,
    q_update,
    run_episode,
    train,
)
from promo_gym.metrics import compute_metrics
from promo_gym.tables import TabularEnv, TransitionTable, validate

# small pool values repeat often, so rows get ties, including +0.0 against -0.0
CELL = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1.5, -2.25]),
)


@st.composite
def q_tables(draw) -> QTable:
    n_actions = draw(st.integers(1, 6))
    row = st.one_of(
        st.lists(CELL, min_size=n_actions, max_size=n_actions),
        st.just([0.0] * n_actions),
    )
    rows = draw(st.lists(row, min_size=1, max_size=5))
    return QTable(len(rows), n_actions, rows)


@settings(deadline=None)
@given(q=q_tables())
def test_greedy_act_is_lowest_index_argmax(q):
    for s in range(q.n_states):
        assert act(q, s, 0.0, RngStream(0)) == int(np.argmax(q.values[s]))


@settings(deadline=None)
@given(q=q_tables(), data=st.data(), r=CELL, done=st.booleans(),
       alpha=st.floats(min_value=1e-3, max_value=1.0),
       gamma=st.floats(min_value=0.0, max_value=0.999))
def test_q_update_matches_numpy_bitwise(q, data, r, done, alpha, gamma):
    s = data.draw(st.integers(0, q.n_states - 1))
    a = data.draw(st.integers(0, q.n_actions - 1))
    s_next = data.draw(st.integers(0, q.n_states - 1))
    before = np.array(q.values)
    old = float(before[s, a])
    target = r if done else r + gamma * float(np.max(before[s_next]))
    expected = old + alpha * (target - old)

    got = q_update(q, s, a, r, s_next, done, alpha, gamma)

    assert type(got) is float
    assert got.hex() == expected.hex()
    before[s, a] = expected
    assert np.array(q.values).tobytes() == before.tobytes()


@given(state=st.integers(0, 10**6), action=st.integers(0, 8), reward=CELL,
       next_state=st.integers(0, 10**6), done=st.booleans())
def test_trace_step_equal_and_hashable_by_fields(state, action, reward,
                                                 next_state, done):
    first = TraceStep(state, action, reward, next_state, done)
    second = TraceStep(state=state, action=action, reward=reward,
                       next_state=next_state, done=done)
    assert first == second
    assert hash(first) == hash(second)
    assert (first.state, first.action, first.reward, first.next_state,
            first.done) == (state, action, reward, next_state, done)
    with pytest.raises(AttributeError):
        first.state = state + 1


# --- whole training runs against a reference loop ---------------------------------

REWARD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 10.0]),
                   st.floats(min_value=-10.0, max_value=10.0))


def normalized(weights: list[int]) -> list[float]:
    return [w / sum(weights) for w in weights]


@st.composite
def valid_tables(draw) -> TransitionTable:
    n_states = draw(st.integers(1, 6))
    n_actions = draw(st.integers(1, 4))

    def outcome_list() -> list[tuple]:
        weights = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        return [(p, draw(st.integers(0, n_states - 1)), draw(REWARD), draw(st.booleans()))
                for p in normalized(weights)]

    pairs = [outcome_list() for _ in range(n_states * n_actions)]
    starts = draw(st.lists(st.integers(0, n_states - 1), min_size=1, max_size=3,
                           unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(starts),
                            max_size=len(starts)))
    table = TransitionTable.compile(n_states, n_actions, pairs,
                                    dict(zip(starts, normalized(weights))))
    assert validate(table) == []
    return table


@st.composite
def learner_configs(draw) -> LearnerConfig:
    epsilon_start = draw(st.floats(0.0, 1.0))
    return LearnerConfig(
        alpha=draw(st.floats(0.01, 1.0)),
        gamma=draw(st.floats(0.0, 0.99)),
        epsilon_start=epsilon_start,
        epsilon_end=draw(st.floats(0.0, epsilon_start)),
        epsilon_decay_episodes=draw(st.none() | st.integers(1, 300)),
        # on both sides of the 128-episode blocks compute_metrics folds
        episodes=draw(st.integers(1, 300)),
        max_steps_per_episode=draw(st.integers(1, 15)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def reference_draw(rows: list, rng: RngStream):
    """Inverse-CDF draw in listed order; a lone row takes no draw."""
    if len(rows) == 1:
        return rows[0]
    u = rng.random()
    acc = 0.0
    for row in rows:
        acc += row[0]
        if u < acc:
            return row
    return rows[-1]


def reference_training(table: TransitionTable, config: LearnerConfig):
    """The training loop over a numpy Q array: np.argmax picks the greedy
    action, np.max gives the bootstrap, every step is a TraceStep and every
    episode EpisodeTrace.from_steps."""
    q = np.zeros((table.n_states, table.n_actions))
    initial = [(p, s) for s, p in sorted(table.initial_distribution.items())]
    root = RngStream(config.seed)
    traces = []
    for episode in range(config.episodes):
        rng = root.substream(TRAIN_STREAM, episode)
        epsilon = epsilon_schedule(config, episode)
        state = reference_draw(initial, rng)[1]
        steps = []
        for _ in range(config.max_steps_per_episode):
            if epsilon > 0.0 and rng.random() < epsilon:
                action = rng.integers(table.n_actions)
            else:
                action = int(np.argmax(q[state]))
            _, next_state, reward, done = reference_draw(table.pair(state, action),
                                                         rng)
            old = float(q[state, action])
            target = reward if done else reward + config.gamma * float(np.max(q[next_state]))
            q[state, action] = old + config.alpha * (target - old)
            steps.append(TraceStep(state, action, reward, next_state, done))
            state = next_state
            if done:
                break
        traces.append(EpisodeTrace.from_steps(steps))
    return q, traces


def reference_metrics(traces: list[EpisodeTrace]) -> tuple[list[float], list[float]]:
    """Per-step sums grown at the edge and added to episode by episode."""
    sums = np.zeros(1)
    totals = [trace.total_reward for trace in traces]
    for trace in traces:
        running = trace.running_totals()
        n = len(running)
        if n > len(sums):
            sums = np.pad(sums, (0, n - len(sums)), mode="edge")
        sums[:n] += running
        sums[n:] += trace.total_reward
    if len(sums) == 1:
        sums = np.array([np.sum(totals)])
    return (sums / len(totals)).tolist(), totals


def hexed(values) -> list[str]:
    return [float(v).hex() for v in values]


@settings(deadline=None, max_examples=50)
@given(table=valid_tables(), config=learner_configs(), record_steps=st.booleans())
def test_training_matches_reference_loop(table, config, record_steps):
    q = QTable(table.n_states, table.n_actions)
    traces = list(train(TabularEnv(table), config, q, record_steps))
    series = compute_metrics(iter(traces))

    ref_q, ref_traces = reference_training(table, config)
    ref_means, ref_totals = reference_metrics(ref_traces)

    assert all(type(v) is float for row in q.values for v in row)
    assert np.array(q.values).tobytes() == ref_q.tobytes()
    assert len(traces) == len(ref_traces)
    for trace, ref in zip(traces, ref_traces):
        assert trace.steps == (ref.steps if record_steps else None)
        assert hexed(trace.running_totals()) == hexed(ref.running_totals())
        assert hexed([trace.total_reward]) == hexed([ref.total_reward])
        assert trace.truncated == ref.truncated
    assert hexed(series.means) == hexed(ref_means)
    assert hexed(series.totals) == hexed(ref_totals)


def reference_evaluation(table: TransitionTable, q: QTable, episodes: int,
                         max_steps: int, seed: int) -> dict:
    """Greedy episodes with every step recorded: success from the last step,
    each total from the steps' rewards and the mean from the totals, each
    added in order from 0.0."""
    config = LearnerConfig(episodes=episodes, max_steps_per_episode=max_steps,
                           seed=seed)
    totals = []
    successes = truncations = 0
    for i in range(episodes):
        rng = RngStream(seed).substream(EVAL_STREAM, i)
        trace = run_episode(TabularEnv(table), q, config, 0.0, rng, learning=False)
        total = 0.0
        for step in trace.steps:
            total += step.reward
        totals.append(total)
        last = trace.steps[-1]
        successes += last.done and last.reward > 0
        truncations += not last.done
    mean = 0.0
    for total in totals:
        mean += total
    return {
        "episodes": episodes,
        "mean_total_reward": mean / episodes,
        "min_total_reward": min(totals),
        "max_total_reward": max(totals),
        "success_rate": successes / episodes,
        "truncation_rate": truncations / episodes,
    }


@settings(deadline=None, max_examples=50)
@given(table=valid_tables(), data=st.data(), episodes=st.integers(1, 40),
       max_steps=st.integers(1, 15), seed=st.integers(0, 2**64 - 1))
def test_greedy_evaluation_matches_recorded_episodes(table, data, episodes,
                                                     max_steps, seed):
    row = st.lists(CELL, min_size=table.n_actions, max_size=table.n_actions)
    q = QTable(table.n_states, table.n_actions,
               data.draw(st.lists(row, min_size=table.n_states, max_size=table.n_states)))

    report = evaluate_greedy(TabularEnv(table), q, episodes, max_steps, seed)

    want = reference_evaluation(table, q, episodes, max_steps, seed)
    assert report.keys() == want.keys()
    assert {k: float(v).hex() for k, v in report.items()} == \
        {k: float(v).hex() for k, v in want.items()}


@given(st.lists(st.one_of(REWARD, st.floats(allow_nan=False)), max_size=20))
@example([-0.0])
@example([-0.0, -0.0, 1.0])
def test_running_totals_accumulate_from_zero(rewards):
    trace = EpisodeTrace(steps=None, rewards=rewards, truncated=True)
    want = list(accumulate(rewards, initial=0.0))
    assert hexed(trace.running_totals()) == hexed(want[1:])
    assert float(trace.total_reward).hex() == want[-1].hex()
