"""Span recording for the traced benchmark run.

Every listed promo-gym function is wrapped, at each name a caller looks
it up under, by a function that records one span: name, start, end and
the enclosing span. Spans live in flat arrays while the run lasts and are
written out once at the end. A layer's self time is its spans' duration
minus the part covered by their child spans.

The program itself is not changed: wrappers are installed from here and
removed again after the traced repetition.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array
from pathlib import Path

import numpy as np


def _rows(args, kwargs, result, counters, name):
    counters[name + ".rows"] += len(result)


def _unify(args, kwargs, result, counters, name):
    promos = args[2] if len(args) > 2 else kwargs["promos"]
    counters[name + ".records_out"] += len(result)
    counters[name + ".promo_checks"] += len(result) * len(promos)


def _serialized_bytes(args, kwargs, result, counters, name):
    counters[name + ".bytes"] += len(result.encode("utf-8"))


def _written_bytes(args, kwargs, result, counters, name):
    counters[name + ".bytes"] += os.path.getsize(args[0])


def _truncated(args, kwargs, result, counters, name):
    counters[name + ".truncated"] += result.truncated


def _iterations(args, kwargs, result, counters, name):
    counters[name + ".iterations"] += result.iterations


# span name -> (places it is looked up from, counter hook or None). A place
# is "module.attr" or "module.Class.attr" inside the promo_gym package;
# names bound by `from ... import` are wrapped in the importing module too.
LAYERS: dict[str, tuple[tuple[str, ...], object]] = {
    "manifest.load_manifest": (("manifest.load_manifest", "cli.load_manifest"), None),
    "ingest.parse_transactions": (("ingest.parse_transactions",), _rows),
    "ingest.parse_promo_plan": (("ingest.parse_promo_plan",), _rows),
    "ingest.parse_holidays": (("ingest.parse_holidays",), None),
    "ingest.parse_zip_store_map": (("ingest.parse_zip_store_map",), None),
    "ingest.unify": (("ingest.unify",), _unify),
    "ingest.write_daily_series": (("ingest.write_daily_series",), None),
    "ingest.read_daily_series": (("ingest.read_daily_series",), None),
    "binning.fit_bins": (("binning.fit_bins",), None),
    "binning.assign_bin": (("binning.assign_bin", "promoenv.assign_bin"), None),
    "promoenv.derive_spec_from_data": (("promoenv.derive_spec_from_data",), None),
    "promoenv.spec_from_json": (("promoenv.spec_from_json",
                                 "manifest.spec_from_json"), None),
    "promoenv.build_promo_mdp": (("promoenv.build_promo_mdp",), None),
    "tables.validate": (("tables.validate",), None),
    "tables.serialize": (("tables.serialize",), _serialized_bytes),
    "tables.deserialize": (("tables.deserialize",), None),
    "tables.TabularEnv.step": (("tables.TabularEnv.step",), None),
    "tables.step_sample": (("tables.step_sample",), None),
    "envcore.RngStream.substream": (("envcore.RngStream.substream",), None),
    "envcore.RngStream.random": (("envcore.RngStream.random",), None),
    "envcore.RngStream.integers": (("envcore.RngStream.integers",), None),
    "learner.train": (("learner.train", "cli.train"), None),
    "learner.run_episode": (("learner.run_episode",), _truncated),
    "learner.act": (("learner.act",), None),
    "learner.q_update": (("learner.q_update",), None),
    "learner.evaluate_greedy": (("learner.evaluate_greedy",
                                 "cli.evaluate_greedy"), None),
    "learner.qtable_to_json": (("learner.qtable_to_json", "cli.qtable_to_json"), None),
    "metrics.compute_metrics": (("metrics.compute_metrics",), None),
    "metrics.write_line_chart_svg": (("metrics.write_line_chart_svg",), None),
    "metrics.write_trace_csv": (("metrics.write_trace_csv",), _written_bytes),
    "metrics.read_trace_csv": (("metrics.read_trace_csv",), None),
    "solve.value_iteration": (("solve.value_iteration",), _iterations),
}

# frozen_lake and rendering are too small to time and stay unwrapped.
# binning.assign_bin runs in microseconds; only its call count is reported.
COUNT_ONLY = {"binning.assign_bin"}

COUNTERS = {
    "ingest.parse_transactions.rows": "count",
    "ingest.parse_promo_plan.rows": "count",
    "ingest.unify.records_out": "count",
    "ingest.unify.promo_checks": "count",
    "tables.serialize.bytes": "bytes",
    "metrics.write_trace_csv.bytes": "bytes",
    "solve.value_iteration.iterations": "count",
}
RATIOS = ("envcore.draws_per_substream", "learner.run_episode.truncated_ratio",
          "tables.step_sample.draw_ratio")
OVERHEAD = {"trace.overhead_s": "s", "trace.spans": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYERS:
        units[name + ".calls"] = "count"
        if name not in COUNT_ONLY:
            units[name + ".self_s"] = "s"
    units.update(COUNTERS)
    units.update({name: "ratio" for name in RATIOS})
    units.update(OVERHEAD)
    return units


class Tracer:
    """Records spans for the functions in LAYERS while installed."""

    def __init__(self):
        self.names = list(LAYERS)
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.current = -1
        self.counters = {name: 0 for name in COUNTERS}
        self.counters["learner.run_episode.truncated"] = 0
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, hook):
        nid = self._intern(name)
        span_names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter_ns
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            if parent >= 0 and span_names[parent] == nid:
                return fn(*args, **kwargs)  # direct recursion stays one span
            span = len(span_names)
            span_names.append(nid)
            parents.append(parent)
            starts.append(clock())
            ends.append(0)
            tracer.current = span
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                tracer.current = parent
            if hook is not None:
                hook(args, kwargs, result, counters, name)
            return result

        return traced

    def install(self) -> None:
        for name, (places, hook) in LAYERS.items():
            sites = []
            for place in places:
                module, *path = place.split(".")
                owner = importlib.import_module(f"promo_gym.{module}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr, None)
                if owner is None or not hasattr(owner, path[-1]):
                    self.missing.append(place)
                    continue
                sites.append((owner, path[-1]))
            if not sites:
                continue
            original = getattr(*sites[0])
            wrapper = self._wrap(name, original, hook)
            for owner, attr in sites:
                if getattr(owner, attr) is not original:
                    self.missing.append(f"{owner.__name__}.{attr} (not the same function)")
                    continue
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened from the benchmark itself, such as a CLI stage."""
        span, parent = len(self.span_name), self.current
        self.span_name.append(self._intern(name))
        self.span_parent.append(parent)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.current = span
        try:
            yield
        finally:
            self.span_end[span] = time.perf_counter_ns()
            self.current = parent

    def summary(self) -> tuple[dict[str, int], dict[str, float], int]:
        """Per-name call counts and self seconds, and random draws made
        directly inside step_sample."""
        name = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.span_parent, dtype=np.int32).astype(np.intp)
        duration = (np.frombuffer(self.span_end, dtype=np.int64)
                    - np.frombuffer(self.span_start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                              minlength=len(name))
        self_ns = duration - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_ns, minlength=k) / 1e9
        random_id = self.names.index("envcore.RngStream.random")
        sample_id = self.names.index("tables.step_sample")
        in_sample = (name == random_id) & has_parent
        sample_draws = int(np.count_nonzero(name[parent[in_sample]] == sample_id))
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(self_s[i]) for i, n in enumerate(self.names)},
                sample_draws)

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64))


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    calls, self_s, sample_draws = tracer.summary()
    out: dict[str, float] = {}
    for name in LAYERS:
        out[name + ".calls"] = calls[name]
        if name not in COUNT_ONLY:
            out[name + ".self_s"] = self_s[name]
    for name in COUNTERS:
        out[name] = tracer.counters[name]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    draws = calls["envcore.RngStream.random"] + calls["envcore.RngStream.integers"]
    out["envcore.draws_per_substream"] = ratio(draws, calls["envcore.RngStream.substream"])
    out["learner.run_episode.truncated_ratio"] = ratio(
        tracer.counters["learner.run_episode.truncated"], calls["learner.run_episode"])
    out["tables.step_sample.draw_ratio"] = ratio(sample_draws, calls["tables.step_sample"])
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tracer.span_name)
    return out
