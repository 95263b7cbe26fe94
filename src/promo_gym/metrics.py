"""Reward-curve metrics over episode traces, plus their CSV/SVG emitters.

Two series summarize a training run:

  mean cumulative reward -- at step t, the mean over all episodes of
      the running reward total after t steps; episodes shorter than t
      carry their final total forward so every episode keeps weighing in.
  episodic reward -- each episode's total reward, in training order.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import EmptyInput, NonFinite, RowError
from .ingest import _open_output, _open_rows, _source_name, _write_csv
from .learner import EpisodeTrace, TraceStep

_TRACE_HEADER = ["episode", "step", "state", "action", "reward", "next_state", "done"]
_DONE = {"true": True, "false": False}


@dataclass
class MetricsSeries:
    means: array    # "d": mean cumulative reward after steps 1, 2, ...
    totals: array   # "d": total reward of episodes 0, 1, ...


_BLOCK = 128  # episodes folded into the per-step sums by one numpy reduction


def compute_metrics(traces: Iterable[EpisodeTrace]) -> MetricsSeries:
    """Carry-forward mean cumulative curve plus per-episode totals, in one
    pass that keeps no trace, only the running totals of a block of
    episodes. Each episode's carry-forward row is added to per-step sums
    in episode order, as mean(axis=0) adds the rows of an episodes x steps
    grid, so the means are bit-identical to the grid's. An episode total
    or a per-step sum that is not finite raises NonFinite."""
    sums = np.zeros(1)  # per-step sums of the carry-forward rows so far
    totals = array("d")
    longest = 0
    block: list[list[float]] = []
    for trace in traces:
        running = trace.running_totals()
        block.append(running)
        totals.append(trace.total_reward)
        longest = max(longest, len(running))
        if len(block) == _BLOCK:
            sums = _fold(sums, block, totals[-_BLOCK:])
            block = []
    if not totals:
        raise EmptyInput("no traces to compute metrics over")
    if block:
        sums = _fold(sums, block, totals[-len(block):])
    if longest <= 1:  # the grid mean sums a lone column pairwise, not in order
        sums = np.array([_sum(np.array(totals))])
    return MetricsSeries(means=array("d", sums / len(totals)), totals=totals)


def _fold(sums: np.ndarray, cumulatives: list[list[float]],
          totals: array) -> np.ndarray:
    """Add a block's carry-forward rows to the sums, in episode order.

    Row 0 of the grid is the sums so far, carried forward at the edge:
    every earlier episode adds its total to the steps it did not reach.
    Each episode row is its running totals, padded with its total. Over
    two or more columns np.add.reduce(axis=0) adds the rows in order;
    over a lone column it would sum them pairwise, so the grid has at
    least two. A finite total means finite running totals, since each
    reward is finite.
    """
    block_totals = np.array(totals)
    if not np.isfinite(block_totals).all():
        raise NonFinite("an episode's total reward is not finite")
    lengths = np.array([len(c) for c in cumulatives])
    width = max(2, len(sums), int(lengths.max()))
    grid = np.empty((1 + len(cumulatives), width))
    grid[0, :len(sums)] = sums
    grid[0, len(sums):] = sums[-1]
    grid[1:] = block_totals[:, None]
    grid[1:][np.arange(width) < lengths[:, None]] = list(chain.from_iterable(cumulatives))
    return _sum(grid)


def _sum(values: np.ndarray) -> np.ndarray:
    """np.add.reduce over axis 0, with an overflow raised as NonFinite
    rather than warned about and summed to infinity."""
    try:
        with np.errstate(over="raise"):
            return np.add.reduce(values, axis=0)
    except FloatingPointError:
        raise NonFinite("the per-step reward sums overflow") from None


# --- CSV emission --------------------------------------------------------------


def write_mean_cumulative_csv(target: str | Path | TextIO,
                              series: MetricsSeries) -> None:
    _write_csv(target, ["step", "mean_cumulative_reward"],
               ((str(step), repr(value))
                for step, value in enumerate(series.means, start=1)))


def write_episodic_csv(target: str | Path | TextIO, series: MetricsSeries) -> None:
    _write_csv(target, ["episode", "total_reward"],
               ((str(ep), repr(total)) for ep, total in enumerate(series.totals)))


def write_trace_csv(target: str | Path | TextIO,
                    traces: Iterable[EpisodeTrace]) -> None:
    """Write the steps of every episode as one CSV: episodes numbered 0..
    in the order given, each one's rows adjacent and in step order."""
    _write_csv(target, _TRACE_HEADER,
               ((str(episode), str(i), str(s.state), str(s.action), repr(s.reward),
                 str(s.next_state), "true" if s.done else "false")
                for episode, trace in enumerate(traces)
                for i, s in enumerate(trace.steps, start=1)))


def read_trace_csv(source: str | Path | TextIO) -> list[EpisodeTrace]:
    """Read a trace file by the rules of every input CSV (ingest._open_rows)
    into its episodes. The episode column starts at 0 and either stays or
    rises by 1 from row to row. Each episode's rows have steps numbered
    1..n, indices of at least 0, finite rewards, each state the previous
    row's next_state, and done on the last row only."""
    traces: list[EpisodeTrace] = []
    steps: list[TraceStep] = []
    episode = 0
    for row_num, row in _open_rows(source, _TRACE_HEADER):
        try:
            label, number, state, action, reward, next_state, done = row
            label, number = int(label), int(number)
            step = TraceStep(int(state), int(action), float(reward), int(next_state),
                             _DONE[done])
        except (ValueError, KeyError):
            raise RowError(f"not a trace row: {','.join(row)!r}", row_num) from None
        if step.state < 0 or step.action < 0 or step.next_state < 0:
            raise RowError("state, action and next_state must be at least 0", row_num)
        if label != episode:
            if not steps or label != episode + 1:
                expected = f"{episode} or {episode + 1}" if steps else f"{episode}"
                raise RowError(f"episode {label}, expected episode {expected}", row_num)
            traces.append(EpisodeTrace.from_steps(steps))
            steps = []
            episode = label
        if number != len(steps) + 1:
            raise RowError(f"step {number}, expected step {len(steps) + 1}", row_num)
        if not math.isfinite(step.reward):
            raise RowError(f"reward {reward!r} is not finite", row_num)
        if steps and steps[-1].done:
            raise RowError("a step after the step that ended the episode", row_num)
        if steps and step.state != steps[-1].next_state:
            raise RowError(f"state {step.state} is not the previous row's "
                           f"next_state {steps[-1].next_state}", row_num)
        steps.append(step)
    if not steps:  # an episode takes at least one step
        raise EmptyInput(f"{_source_name(source)}: trace has no steps")
    traces.append(EpisodeTrace.from_steps(steps))
    return traces


# --- self-contained SVG line chart ----------------------------------------------
# The CSVs are the testable ground truth; the chart is a convenience view
# written without any plotting dependency.

_SVG_W, _SVG_H, _MARGIN = 640, 360, 48


def write_line_chart_svg(target: str | Path, xs: Sequence[float], ys: Sequence[float],
                         title: str, x_label: str, y_label: str) -> None:
    """Chart the points (xs[i], ys[i]). Each sequence is read twice and no
    list of points is made, so a range and an array chart a long series in
    their own memory."""
    if not len(ys):
        raise EmptyInput("no points to chart")
    x_lo, x_hi = float(min(xs)), float(max(xs))
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    plot_w = _SVG_W - 2 * _MARGIN
    plot_h = _SVG_H - 2 * _MARGIN

    def sx(x: float) -> float:
        return _MARGIN + (x - x_lo) / x_span * plot_w

    def sy(y: float) -> float:
        return _SVG_H - _MARGIN - (y - y_lo) / y_span * plot_h

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{_MARGIN}" y1="{_SVG_H - _MARGIN}" x2="{_SVG_W - _MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_SVG_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="14" y="{_SVG_H / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_SVG_H / 2:.0f})">{y_label}</text>',
        f'<text x="{_MARGIN}" y="{_SVG_H - _MARGIN + 16}" font-family="sans-serif" '
        f'font-size="10">{x_lo:g}</text>',
        f'<text x="{_SVG_W - _MARGIN}" y="{_SVG_H - _MARGIN + 16}" '
        f'text-anchor="end" font-family="sans-serif" font-size="10">{x_hi:g}</text>',
        f'<text x="{_MARGIN - 4}" y="{_SVG_H - _MARGIN}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_lo:g}</text>',
        f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="10">{y_hi:g}</text>',
        '<polyline points="',
    ]
    coords = (f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    with _open_output(target) as handle:
        handle.write("\n".join(head))
        handle.write(next(coords))
        handle.writelines(" " + c for c in coords)
        handle.write('" fill="none" stroke="#2266cc" stroke-width="1.5"/>\n</svg>\n')
