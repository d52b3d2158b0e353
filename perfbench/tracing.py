"""Timing wrappers swapped in for the library's public functions in a traced run.

Each wrapper is installed at the name its caller looks up (a module global
or a class attribute), so no library source changes.  Spans stay in memory:
every span updates per-name totals as it closes (calls, busy time, self time
= busy time minus the time its direct children cover), and the first
KEEP_SPANS spans are kept whole, with their caller span and decision index,
for writing out at the end.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from typing import Callable

KEEP_SPANS = 20_000


class Tracer:
    """Span recorder with a stack of open spans and per-name aggregates."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.decision = -1
        self.stats: dict[str, list] = {}      # name -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}  # counts read off call results
        self.spans: list[list] = []           # [name, decision, parent, start, end]
        self.root_s = 0.0                     # time covered by outermost spans
        self._stack: list[list] = []          # [start, child_s, span_index]

    def open(self, name: str) -> None:
        parent = self._stack[-1][2] if self._stack else -1
        index = -1
        start = self.clock()
        if len(self.spans) < KEEP_SPANS:
            index = len(self.spans)
            self.spans.append([name, self.decision, parent, start, None])
        self._stack.append([start, 0.0, index])

    def close(self, name: str) -> None:
        end = self.clock()
        start, child_s, index = self._stack.pop()
        busy = end - start
        if index >= 0:
            self.spans[index][4] = end
        if self._stack:
            self._stack[-1][1] += busy
        else:
            self.root_s += busy
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += busy
        entry[2] += busy - child_s

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


def _on_take(tracer, args, result):
    tracer.count("poisson.take.symbols", int(args[1]))


def _on_test(tracer, args, result):
    verdict, report = result
    if report.branch == "poissonized":
        tracer.count("uniformity_tester.poissonized.calls")
    tracer.count("uniformity_tester.samples_consumed", report.samples_consumed)
    tracer.count("uniformity_tester.samples_requested", report.samples_requested)


def _on_full_run(tracer, args, result):
    params = args[0]
    width = params.x_max + 1
    bound = params.r * params.n * width * (width + 1) // 2
    tracer.count("full_tester.intervals_evaluated", result.intervals_evaluated)
    if result.intervals_evaluated > bound:
        tracer.count("full_tester.interval_bound_violations")


# (module, attribute, span name, result hook).  A function is wrapped at
# every module whose code calls it by its bare name; "poisson.SymbolStream"
# names a class whose method is swapped.
WRAP_POINTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("uniformity_tester", "test_uniformity", "uniformity_tester.test", _on_test),
    ("tracker", "test_uniformity", "uniformity_tester.test", _on_test),
    ("harness", "test_uniformity", "uniformity_tester.test", _on_test),
    ("uniformity_tester", "collision_group_test", "uniformity_tester.collision", None),
    ("uniformity_tester", "poissonized_sample_cap", "uniformity_tester.cap", None),
    ("tracker", "poissonized_sample_cap", "uniformity_tester.cap", None),
    ("uniformity_tester", "run_full_tester", "full_tester.run", _on_full_run),
    ("uniformity_tester", "derive_full_params", "full_tester.derive", None),
    ("full_tester", "poisson_split", "poisson.split", None),
    ("full_tester", "poisson_pmf_table", "interval_tester.mass_matrix", None),
    ("full_tester", "interval_mass_matrix", "interval_tester.mass_matrix", None),
    ("uniformity_tester", "poissonize", "poisson.poissonize", None),
    ("poisson.SymbolStream", "take", "poisson.take", _on_take),
    ("tracker", "tracker_feed", "tracker.feed", None),
    ("tracker", "tracker_run", "tracker.run", None),
    ("tracker", "stage_sample_target", "tracker.stage_target", None),
    ("harness", "run_experiment", "harness.experiment", None),
    ("harness", "run_trial", "harness.trial", None),
    ("harness", "summarize_records", "harness.summarize", None),
)


def _owner(where: str):
    # Looked up at each call: a set-up re-imports the library afresh.
    module, _, cls = where.partition(".")
    owner = importlib.import_module(f"unifwatch.{module}")
    return getattr(owner, cls) if cls else owner


def wrap(tracer: Tracer, name: str, fn: Callable, hook: Callable | None = None):
    """Timing wrapper around fn that records one span per call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(name)
        if hook is not None:
            hook(tracer, args, result)
        return result

    return traced


def current_targets() -> dict[tuple[str, str], Callable]:
    """What each wrap point resolves to right now (originals when untraced)."""
    return {(where, attr): getattr(_owner(where), attr)
            for where, attr, _, _ in WRAP_POINTS}


def install(tracer: Tracer) -> Callable[[], None]:
    """Swap every wrap point for a timing wrapper; returns the undo function."""
    originals = []
    for where, attr, name, hook in WRAP_POINTS:
        owner = _owner(where)
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, wrap(tracer, name, fn, hook))

    def uninstall() -> None:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return uninstall


def install_peak_probe(peaks: list[int]) -> Callable[[], None]:
    """Record, per run_full_tester call, the tracemalloc peak above its entry level.

    Resets the process-wide tracemalloc peak, so use it only in a pass that
    reports no whole-run peak.  Returns the undo function.
    """
    owner = _owner("uniformity_tester")
    fn = owner.run_full_tester

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    owner.run_full_tester = probed
    return lambda: setattr(owner, "run_full_tester", fn)
