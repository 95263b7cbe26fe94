"""Property checks that pin the learner's per-step arithmetic to numpy's.

act and q_update read Q rows as plain Python floats; these properties hold
them to the numpy reductions bit for bit, on random finite rows with
forced ties, all-zero rows and both signed zeros.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promo_gym.envcore import RngStream
from promo_gym.learner import QTable, TraceStep, act, q_update

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
    return QTable(len(rows), n_actions, np.array(rows, dtype=float))


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
    before = q.values.copy()
    old = float(before[s, a])
    target = r if done else r + gamma * float(np.max(before[s_next]))
    expected = old + alpha * (target - old)

    got = q_update(q, s, a, r, s_next, done, alpha, gamma)

    assert type(got) is float
    assert got.hex() == expected.hex()
    before[s, a] = expected
    assert q.values.tobytes() == before.tobytes()


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
