import gc
import io
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from promo_gym.errors import EmptyInput
from promo_gym.learner import EpisodeTrace, TraceStep
from promo_gym.metrics import (
    compute_metrics,
    read_trace_csv,
    write_episodic_csv,
    write_line_chart_svg,
    write_mean_cumulative_csv,
    write_trace_csv,
)


def trace_from_rewards(rewards, done_last=True) -> EpisodeTrace:
    steps = [TraceStep(state=i, action=0, reward=float(r), next_state=i + 1,
                       done=done_last and i == len(rewards) - 1)
             for i, r in enumerate(rewards)]
    return EpisodeTrace(steps=steps, rewards=[s.reward for s in steps],
                        truncated=not done_last)


class TestComputeMetrics:
    def test_single_trace(self):
        series = compute_metrics([trace_from_rewards([-1, -1, 10])])
        assert list(series.means) == [-1.0, -2.0, 8.0]
        assert list(series.totals) == [8.0]

    def test_carry_forward_over_short_episodes(self):
        series = compute_metrics([
            trace_from_rewards([1]),
            trace_from_rewards([1, 1]),
        ])
        assert list(series.means) == [1.0, 1.5]
        assert list(series.totals) == [1.0, 2.0]

    def test_identical_traces_mean_equals_each(self):
        traces = [trace_from_rewards([-1, 2, -3]) for _ in range(100)]
        series = compute_metrics(traces)
        assert list(series.means) == [-1.0, 1.0, -2.0]

    def test_last_cumulative_equals_total(self):
        traces = [trace_from_rewards([0.5, -2, 7, 1]), trace_from_rewards([3])]
        for trace in traces:
            assert trace.running_totals()[-1] == trace.total_reward

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_metrics([])


def grid_metrics(traces):
    """The episodes x steps grid formula that compute_metrics streams."""
    horizon = max(len(t.running_totals()) for t in traces)
    grid = np.empty((len(traces), horizon))
    for i, trace in enumerate(traces):
        running = trace.running_totals()
        n = len(running)
        grid[i, :n] = running
        grid[i, n:] = running[-1]
    means = grid.mean(axis=0)
    return means.tolist(), [trace.total_reward for trace in traces]


def hexed(values):
    return [float.hex(v) for v in values]


_reward = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(min_value=-1e300, max_value=1e300),
                    st.floats(min_value=-10.0, max_value=10.0))
# a common step cap per draw, so runs of one-step episodes come up often
_episodes = st.integers(min_value=1, max_value=12).flatmap(
    lambda cap: st.lists(st.lists(_reward, min_size=1, max_size=cap), min_size=1,
                         max_size=40))


# episode counts on both sides of the 128-episode blocks compute_metrics folds
_many_episodes = st.integers(min_value=1, max_value=6).flatmap(
    lambda cap: st.lists(st.lists(_reward, min_size=1, max_size=cap), min_size=100,
                         max_size=300))


def assert_matches_grid(episodes):
    traces = [EpisodeTrace.from_steps(trace_from_rewards(r).steps) for r in episodes]
    series = compute_metrics(iter(traces))
    mean_cumulative, episodic = grid_metrics(traces)
    assert hexed(series.means) == hexed(mean_cumulative)
    assert hexed(series.totals) == hexed(episodic)


class TestStreamingMatchesGrid:
    @settings(deadline=None, max_examples=300)
    @given(_episodes, st.booleans())
    @example([[0.1 * k, 3.0] for k in range(30)] + [[1.0, 2.0, 3.0, 4.0, 5.0]], False)
    @example([[1e16]] + [[1.0]] * 9, False)  # one step: the grid sums pairwise
    @example([[-0.0, 0.0, -0.0]], False)
    @example([[1e300, -1e300, 1.0]], False)
    # one-step episodes, then longer ones, around the block edges
    @example([[0.1 * k] for k in range(126)] + [[1e16, 1.0, 3.0]], False)
    @example([[1e16]] + [[0.1 * k] for k in range(127)], False)
    @example([[0.1 * k] for k in range(128)] + [[1.0, 2.0]], False)
    @example([[0.1 * k] for k in range(129)] + [[-0.0, 0.3]] * 127 + [[1.0] * 9], False)
    def test_bit_identical(self, episodes, longest_last):
        if longest_last:
            episodes = sorted(episodes, key=len)
        assert_matches_grid(episodes)

    @settings(deadline=None, max_examples=40)
    @given(_many_episodes, st.booleans())
    def test_bit_identical_across_blocks(self, episodes, longest_last):
        if longest_last:
            episodes = sorted(episodes, key=len)
        assert_matches_grid(episodes)


class TestKeepsNoTrace:
    def test_each_trace_dies_once_the_next_is_pulled(self):
        refs = []

        def traces():
            for k in range(30):
                trace = trace_from_rewards([1.0] * (k % 7 + 1))
                refs.append(weakref.ref(trace))
                yield trace
                del trace
                # resumed for trace k + 1: only trace k may still be held
                gc.collect()
                assert [ref() is None for ref in refs[:-1]] == [True] * k

        series = compute_metrics(traces())
        gc.collect()
        assert all(ref() is None for ref in refs)
        expected = compute_metrics([trace_from_rewards([1.0] * (k % 7 + 1))
                                    for k in range(30)])
        assert series == expected


class TestCsvEmission:
    def test_mean_cumulative_header_and_rows(self):
        series = compute_metrics([trace_from_rewards([-1, -1, 10])])
        buf = io.StringIO()
        write_mean_cumulative_csv(buf, series)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,mean_cumulative_reward"
        assert lines[1] == "1,-1.0"
        assert lines[3] == "3,8.0"

    def test_episodic_header(self):
        series = compute_metrics([trace_from_rewards([2])])
        buf = io.StringIO()
        write_episodic_csv(buf, series)
        assert buf.getvalue().splitlines() == ["episode,total_reward", "0,2.0"]

    def test_trace_round_trip(self):
        trace = trace_from_rewards([-1, -1, 20])
        buf = io.StringIO()
        write_trace_csv(buf, [trace])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "episode,step,state,action,reward,next_state,done"
        assert lines[1] == "0,1,0,0,-1.0,1,false"
        again = read_trace_csv(io.StringIO(buf.getvalue()))
        assert again == [trace]

    def test_truncated_trace_round_trip(self):
        trace = trace_from_rewards([-1, -1], done_last=False)
        buf = io.StringIO()
        write_trace_csv(buf, [trace])
        [again] = read_trace_csv(io.StringIO(buf.getvalue()))
        assert again.truncated
        assert again == trace

    def test_episodes_numbered_in_order(self):
        traces = [trace_from_rewards([1, 2]), trace_from_rewards([3], done_last=False),
                  trace_from_rewards([4, 5, 6])]
        buf = io.StringIO()
        write_trace_csv(buf, iter(traces))
        rows = [line.split(",")[:2] for line in buf.getvalue().splitlines()[1:]]
        assert rows == [["0", "1"], ["0", "2"], ["1", "1"], ["2", "1"], ["2", "2"],
                        ["2", "3"]]
        assert read_trace_csv(io.StringIO(buf.getvalue())) == traces

    def test_trace_without_recorded_steps_is_not_written(self):
        unrecorded = EpisodeTrace(steps=None, rewards=[-1.0], truncated=True)
        buffer = io.StringIO()
        with pytest.raises(TypeError):
            write_trace_csv(buffer, [unrecorded])

    def test_negative_zero_reward_totals_positive_zero(self):
        buffer = io.StringIO()
        write_trace_csv(buffer, [trace_from_rewards([-0.0])])
        buffer.seek(0)
        [trace] = read_trace_csv(buffer)
        assert trace.steps[0].reward == 0.0
        assert [str(v) for v in trace.running_totals()] == ["0.0"]
        assert str(trace.total_reward) == "0.0"


@st.composite
def recorded_traces(draw) -> EpisodeTrace:
    """One episode of 1-8 chained steps with finite rewards, -0.0 among
    them, that ends in done or is truncated."""
    n = draw(st.integers(min_value=1, max_value=8))
    states = draw(st.lists(st.integers(0, 60), min_size=n + 1, max_size=n + 1))
    actions = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rewards = draw(st.lists(_reward, min_size=n, max_size=n))
    done = draw(st.booleans())
    return EpisodeTrace.from_steps([
        TraceStep(state=states[i], action=actions[i], reward=rewards[i],
                  next_state=states[i + 1], done=done and i == n - 1)
        for i in range(n)])


@settings(deadline=None, max_examples=200)
@given(st.lists(recorded_traces(), min_size=1, max_size=12))
@example([EpisodeTrace.from_steps([TraceStep(0, 0, -0.0, 1, False)])])
def test_trace_file_round_trip(traces):
    """Reading back a written trace file gives every episode's steps, running
    totals, total and truncation, to the bit."""
    buffer = io.StringIO()
    write_trace_csv(buffer, traces)
    again = read_trace_csv(io.StringIO(buffer.getvalue()))
    assert len(again) == len(traces)
    for got, want in zip(again, traces):
        assert got.steps == want.steps
        assert hexed(s.reward for s in got.steps) == hexed(s.reward for s in want.steps)
        assert hexed(got.running_totals()) == hexed(want.running_totals())
        assert float.hex(got.total_reward) == float.hex(want.total_reward)
        assert got.truncated == want.truncated


class TestSvg:
    def test_chart_is_wellformed_and_deterministic(self, tmp_path):
        points = [(float(i), float(i * i % 7)) for i in range(1, 50)]
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        xs, ys = zip(*points)
        write_line_chart_svg(a, xs, ys, "title", "x", "y")
        write_line_chart_svg(b, xs, ys, "title", "x", "y")
        text = a.read_text()
        assert text.startswith("<svg ")
        assert "<polyline" in text and text.rstrip().endswith("</svg>")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(EmptyInput):
            write_line_chart_svg(tmp_path / "x.svg", [], [], "t", "x", "y")
