import io

import pytest

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
    steps = []
    cumulative = []
    total = 0.0
    for i, r in enumerate(rewards):
        done = done_last and i == len(rewards) - 1
        steps.append(TraceStep(state=i, action=0, reward=float(r),
                               next_state=i + 1, done=done))
        total += r
        cumulative.append(total)
    return EpisodeTrace(steps=steps, cumulative=cumulative, total_reward=total,
                        truncated=not done_last)


class TestComputeMetrics:
    def test_single_trace(self):
        series = compute_metrics([trace_from_rewards([-1, -1, 10])])
        assert series.mean_cumulative == [(1, -1.0), (2, -2.0), (3, 8.0)]
        assert series.episodic == [(0, 8.0)]

    def test_carry_forward_over_short_episodes(self):
        series = compute_metrics([
            trace_from_rewards([1]),
            trace_from_rewards([1, 1]),
        ])
        assert series.mean_cumulative == [(1, 1.0), (2, 1.5)]
        assert series.episodic == [(0, 1.0), (1, 2.0)]

    def test_identical_traces_mean_equals_each(self):
        traces = [trace_from_rewards([-1, 2, -3]) for _ in range(100)]
        series = compute_metrics(traces)
        assert [v for _, v in series.mean_cumulative] == [-1.0, 1.0, -2.0]

    def test_last_cumulative_equals_total(self):
        traces = [trace_from_rewards([0.5, -2, 7, 1]), trace_from_rewards([3])]
        for trace in traces:
            assert trace.cumulative[-1] == trace.total_reward

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_metrics([])


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
        write_trace_csv(buf, trace)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,state,action,reward,next_state,done"
        again = read_trace_csv(io.StringIO(buf.getvalue()))
        assert again == trace

    def test_truncated_trace_round_trip(self):
        trace = trace_from_rewards([-1, -1], done_last=False)
        buf = io.StringIO()
        write_trace_csv(buf, trace)
        again = read_trace_csv(io.StringIO(buf.getvalue()))
        assert again.truncated
        assert again == trace


    def test_negative_zero_reward_totals_positive_zero(self):
        buffer = io.StringIO()
        write_trace_csv(buffer, trace_from_rewards([-0.0]))
        buffer.seek(0)
        trace = read_trace_csv(buffer)
        assert trace.steps[0].reward == 0.0
        assert [str(v) for v in trace.cumulative] == ["0.0"]
        assert str(trace.total_reward) == "0.0"


class TestSvg:
    def test_chart_is_wellformed_and_deterministic(self, tmp_path):
        points = [(float(i), float(i * i % 7)) for i in range(1, 50)]
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        write_line_chart_svg(a, points, "title", "x", "y")
        write_line_chart_svg(b, points, "title", "x", "y")
        text = a.read_text()
        assert text.startswith("<svg ")
        assert "<polyline" in text and text.rstrip().endswith("</svg>")
        assert a.read_bytes() == b.read_bytes()

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(EmptyInput):
            write_line_chart_svg(tmp_path / "x.svg", [], "t", "x", "y")
