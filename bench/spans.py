"""Span-recording wrappers around the calls between qtf's layers.

``Tracer.install`` replaces, in ``qtf.cli``, ``qtf.tracks`` and
``qtf.montecarlo``, every name bound to one of the traced public
functions with a wrapper that records a span: name, start, end, parent
span and invocation id.  ``solvency.action_index`` runs once per track,
so it gets a counting wrapper without spans.  ``Tracer.restore`` puts
the originals back.  No file under ``src`` is changed: the spans are
taken from the benchmark's side of each call.

A layer's self time is its spans' durations minus the durations of
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PATCHED_MODULES = ("qtf.cli", "qtf.tracks", "qtf.montecarlo")

# Per-layer metrics: name -> unit.  Layers a workload does not run
# report 0.
PER_LAYER = {
    "startup.python_s": "s",
    "startup.import_numpy_us": "us",
    "startup.import_qtf_us": "us",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "tracks.parse_dataset.self_s": "s",
    "tracks.parse_dataset.rows": "count",
    "tracks.parse_dataset.rows_dropped": "count",
    "tracks.compute_stats.self_s": "s",
    "tracks.solvency_report.self_s": "s",
    "tracks.solvency_report.calls": "count",
    "tracks.report_to_dict.self_s": "s",
    "tracks.emit_summary.self_s": "s",
    "tracks.index_useful_ratio": "ratio",
    "solvency.action_index.calls": "count",
    "montecarlo.generate_tracks.self_s": "s",
    "montecarlo.generate_tracks.tracks": "count",
    "montecarlo.censor_at_floor.self_s": "s",
    "montecarlo.censor_at_floor.kept_ratio": "ratio",
    "rng.std_normal.s": "s",
    "rng.draws": "count",
    "montecarlo.run_accrual.self_s": "s",
    "montecarlo.run_accrual.calls": "count",
    "montecarlo.run_accrual.steps": "count",
    "montecarlo.sweep_prediction_1.self_s": "s",
    "montecarlo.ks_statistic.self_s": "s",
    "thermo.compute_budget.self_s": "s",
    "thermo.audit_against_paper.self_s": "s",
    "constants.constants_snapshot.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int


def _observe_parse(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["tracks.parse_dataset.rows"] += result.rows_read
    tracer.counts["tracks.parse_dataset.rows_dropped"] += result.rows_dropped


def _observe_report(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["tracks.solvency_report.calls"] += 1
    tracer.counts["indices_computed"] += len(result.n_values)


def _observe_emit(tracer: Tracer, args: tuple, result) -> None:
    # emit_summary(json) calls report_to_dict on the same report, so
    # emitted reports are counted once each.
    tracer.emitted[id(args[0])] = args[0]


def _observe_generate(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["montecarlo.generate_tracks.tracks"] += len(result.records)
    tracer.sim_configs.append(args[0])
    tracer.generated = result


def _observe_censor(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["indices_computed"] += len(args[0].records)
    tracer.counts["censor_in"] += len(args[0].records)
    tracer.counts["censor_kept"] += len(result.records)
    tracer.censored = result


def _observe_accrual(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["montecarlo.run_accrual.calls"] += 1
    tracer.counts["montecarlo.run_accrual.steps"] += result.steps_run


# (span name, module, function, observer of arguments and result)
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "qtf.cli", "main", None),
    ("tracks.parse_dataset", "qtf.tracks", "parse_dataset", _observe_parse),
    ("tracks.compute_stats", "qtf.tracks", "compute_stats", None),
    ("tracks.solvency_report", "qtf.tracks", "solvency_report", _observe_report),
    ("tracks.report_to_dict", "qtf.tracks", "report_to_dict", _observe_emit),
    ("tracks.emit_summary", "qtf.tracks", "emit_summary", _observe_emit),
    ("montecarlo.generate_tracks", "qtf.montecarlo", "generate_tracks", _observe_generate),
    ("montecarlo.censor_at_floor", "qtf.montecarlo", "censor_at_floor", _observe_censor),
    ("montecarlo.run_accrual", "qtf.montecarlo", "run_accrual", _observe_accrual),
    ("montecarlo.sweep_prediction_1", "qtf.montecarlo", "sweep_prediction_1", None),
    ("thermo.compute_budget", "qtf.thermo", "compute_budget", None),
    ("thermo.audit_against_paper", "qtf.thermo", "audit_against_paper", None),
    ("constants.constants_snapshot", "qtf.constants", "constants_snapshot", None),
)
COUNTED = (("solvency.action_index.calls", "qtf.solvency", "action_index"),)


class Tracer:
    """Spans and counts of one traced round of invocations."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.invocation = 0
        self.emitted: dict[int, object] = {}
        self.sim_configs: list[object] = []
        # The last generated and censored datasets, for the KS timing.
        self.generated = None
        self.censored = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, 0.0, 0.0, parent, self.invocation))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.invocation)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        replacement = {}
        for name, module, attr, observe in TRACED:
            fn = getattr(importlib.import_module(module), attr)
            replacement[id(fn)] = self._span(name, fn, observe)
        for name, module, attr in COUNTED:
            fn = getattr(importlib.import_module(module), attr)
            replacement[id(fn)] = self._counter(name, fn)
        for module_name in PATCHED_MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if id(value) in replacement:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement[id(value)])

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start - children
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this round's spans and counts give."""
        metrics = dict.fromkeys(PER_LAYER, 0)
        for name, seconds in self.self_times().items():
            metrics[f"{name}.self_s"] = seconds
        for name in PER_LAYER:
            if name in self.counts:
                metrics[name] = self.counts[name]
        computed = self.counts["indices_computed"]
        emitted = self.counts["indices_emitted"]
        metrics["tracks.index_useful_ratio"] = emitted / computed if computed else 0
        censor_in = self.counts["censor_in"]
        metrics["montecarlo.censor_at_floor.kept_ratio"] = (
            self.counts["censor_kept"] / censor_in if censor_in else 0
        )
        return metrics

    def end_invocation(self) -> None:
        self.counts["indices_emitted"] += sum(
            len(report.n_values) for report in self.emitted.values()
        )
        self.emitted.clear()
        self.invocation += 1


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric low median over rounds, so that counts stay whole."""
    return {name: statistics.median_low(r[name] for r in rounds) for name in rounds[0]}
