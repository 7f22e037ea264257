"""Spans around dpaudit's layers for the traced, in-process replay.

The replay calls ``dpaudit.cli.main`` with a workload's arguments. While
``instrumented`` is active, the module functions the CLI pipeline calls into
are replaced by wrappers defined here that record one span per call; the
library's files are not changed. Each span has a name, start, end, parent and
the id of the operation it belongs to. Spans stay in memory until the run
writes them out.

A layer's time is its self time: the span's duration minus the spans nested
in it. Counts are recorded at the same boundaries; those marked computed are
derived from the call's arguments (bytes or normals the call must touch),
not measured.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

ROOT_SPAN = "cli.main"
SPAN_NAMES = (
    ROOT_SPAN,
    "scores.read", "scores.write",
    "histogram.spec", "histogram.build", "histogram.profile",
    "estimators.audit", "estimators.report_json",
    "confidence.radius", "confidence.sigma_interval", "mechanisms.tv",
    "tradeoff.convert", "profiles.csv_write",
    "pld.compose", "pld.build", "pld.convolve", "pld.evaluate",
    "canary.whitebox", "canary.one_shot", "canary.gram",
)
COUNT_NAMES = (
    "scores.read_lines", "scores.write_lines",
    "histogram.k", "histogram.profile_bytes",
    "mechanisms.tv_calls", "tradeoff.pairs",
    "pld.nodes_in", "pld.nodes_out", "pld.evaluate_calls", "pld.node_visits",
    "canary.whitebox_normals", "canary.gram_factor_bytes", "canary.gram_rss_mb",
)
# taken over a whole traced run: the import in fresh interpreters, replay
# times with and without spans, and the share of the replay inside layer spans
RUN_METRICS = ("cli.import_s", "trace.replay_s", "trace.untraced_s",
               "trace.overhead_s", "trace.coverage")
PER_LAYER_METRICS = tuple(f"{name}_s" for name in SPAN_NAMES) + COUNT_NAMES + RUN_METRICS


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``op`` tags the operation being replayed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.op, parent, time.perf_counter())
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.counts.update(count(args, result))
            return result
        return traced

    def layer_metrics(self, op: int) -> dict:
        """Self time per span name and summed counts for one replayed operation."""
        metrics = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        metrics.update({name: 0 for name in COUNT_NAMES})
        nested = [0.0] * len(self.spans)
        for record in self.spans:
            if record.op == op and record.parent is not None:
                nested[record.parent] += record.end - record.start
        for i, record in enumerate(self.spans):
            if record.op != op:
                continue
            metrics[f"{record.name}_s"] += record.end - record.start - nested[i]
            for key, value in record.counts.items():
                metrics[key] += value() if callable(value) else value
        root = [s for s in self.spans if s.op == op and s.name == ROOT_SPAN]
        if root:
            duration = root[0].end - root[0].start
            metrics["trace.coverage"] = 1.0 - metrics[f"{ROOT_SPAN}_s"] / duration
        return metrics

    def to_records(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "op": s.op, "parent": s.parent,
                 "start": s.start - t0, "end": s.end - t0,
                 "counts": {k: (v() if callable(v) else v) for k, v in s.counts.items()}}
                for s in self.spans]


def _tradeoff_pairs(profile, delta_target, n_points):
    """Computed: the delta' values profile_to_tradeoff could invert."""
    grid = np.linspace(delta_target, 1.0 - delta_target, n_points)
    return sum(profile.epsilon_at(float(d)) is not None for d in grid)


def _tradeoff_count(args, result):
    profile, delta_target, n_points = args[:3]
    # evaluated when the run ends, so the work lands in no span
    return {"tradeoff.pairs": lambda: _tradeoff_pairs(profile, delta_target, n_points)}


def _gram_count(args, result):
    cfg = args[0]
    m = 2 * cfg.n + (1 if cfg.x_norm > 0 else 0)
    return {"canary.gram_factor_bytes": m * m * 8,
            "canary.gram_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _whitebox_count(args, result):
    cfg = args[0]
    per_step = 3 + (2 if cfg.nuisance_norm > 0 else 0)  # canary, two gradients, nuisances
    return {"canary.whitebox_normals": cfg.iterations * cfg.d * per_step}


def _instrumentation_points():
    """(owner, attribute, span name, count) for each call the CLI makes into a layer."""
    from dpaudit import canary, cli, estimators, pld
    from dpaudit.mechanisms import SubsampledGaussianMechanism
    from dpaudit.profiles import PrivacyProfile
    from dpaudit.tradeoff import TradeoffCurve

    return [
        (cli, "read_scores", "scores.read", lambda a, r: {"scores.read_lines": int(r.size)}),
        (cli, "write_scores", "scores.write", lambda a, r: {"scores.write_lines": len(a[1])}),
        (cli, "spec_from_config", "histogram.spec", lambda a, r: {"histogram.k": r.k}),
        (estimators, "spec_from_config", "histogram.spec", lambda a, r: {"histogram.k": r.k}),
        (cli, "build_histograms", "histogram.build", None),
        (estimators, "build_histograms", "histogram.build", None),
        (estimators, "estimate_profile", "histogram.profile",
         lambda a, r: {"histogram.profile_bytes": len(a[1]) * a[0].spec.k * 8}),
        (cli, "histogram_audit", "estimators.audit", None),
        (canary, "histogram_audit", "estimators.audit", None),
        (estimators.AuditReport, "to_json", "estimators.report_json", None),
        (estimators, "canonne_radius", "confidence.radius", None),
        (estimators, "estimate_sigma", "confidence.sigma_interval", None),
        (SubsampledGaussianMechanism, "tv", "mechanisms.tv",
         lambda a, r: {"mechanisms.tv_calls": 1}),
        (estimators, "profile_to_tradeoff", "tradeoff.convert", _tradeoff_count),
        (TradeoffCurve, "to_csv", "profiles.csv_write", None),
        (PrivacyProfile, "to_csv", "profiles.csv_write", None),
        (pld, "compose_profile", "pld.compose", None),
        (pld, "pld_from_discrete", "pld.build", lambda a, r: {"pld.nodes_in": int(r.masses.size)}),
        (pld, "self_convolve", "pld.convolve", lambda a, r: {"pld.nodes_out": int(r.masses.size)}),
        (pld, "delta_from_pld", "pld.evaluate",
         lambda a, r: {"pld.evaluate_calls": 1, "pld.node_visits": int(a[0].masses.size)}),
        (cli, "whitebox_stream", "canary.whitebox", _whitebox_count),
        (cli, "one_shot_audit", "canary.one_shot", None),
        (canary, "one_shot_scores_gram", "canary.gram", _gram_count),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Swap the layer functions for span-recording wrappers; restore on exit."""
    saved = []
    try:
        for owner, attr, name, count in _instrumentation_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
