"""Self-tests of the benchmark's own code.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import unifwatch  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Source, Workload  # noqa: E402

UNIFORM = Source("uniform", "uniform")
POINT = Source("point_mass", "heavy_element", {"beta": 1.0})
TINY = {
    "tester": Workload(name="tiny_tester", kind="tester", n=16, m=8, delta=0.1,
                       overrides={"r": 2}, sources=(UNIFORM,),
                       checks=(POINT,)),
    "harness": Workload(name="tiny_harness", kind="harness", n=50, m=16,
                        delta=0.1, overrides={"r": 2}, sources=(UNIFORM, POINT)),
    "tracker": Workload(name="tiny_tracker", kind="tracker", n=16, delta=0.2,
                        overrides={"r": 4}, max_stage=3, sources=(UNIFORM, POINT),
                        latency=POINT.name),
}


def test_self_time_is_busy_time_minus_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.open("a")
    tracer.open("b")
    tracer.close("b")
    tracer.open("c")
    tracer.open("d")
    tracer.close("d")
    tracer.close("c")
    tracer.close("a")
    assert tracer.stats == {"a": [1, 10.0, 4.0], "b": [1, 2.0, 2.0],
                            "c": [1, 4.0, 3.0], "d": [1, 1.0, 1.0]}
    assert tracer.root_s == 10.0
    # The same self times follow from the kept spans and their caller links.
    for index, (name, _, _, start, end) in enumerate(tracer.spans):
        children = sum(e - s for _, _, parent, s, e in tracer.spans
                       if parent == index)
        assert tracer.stats[name][2] == (end - start) - children


def test_wrappers_nest_and_record_callers():
    tracer = tracing.Tracer()
    inner = tracing.wrap(tracer, "inner", lambda x: x + 1)
    outer = tracing.wrap(tracer, "outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (outer_name, _, outer_parent, _, _), (inner_name, _, inner_parent, _, _) = \
        tracer.spans
    assert (outer_name, outer_parent, inner_name, inner_parent) == \
        ("outer", -1, "inner", 0)
    busy, own = tracer.stats["outer"][1:]
    assert own == busy - tracer.stats["inner"][1]


def test_tail_percentile_rule():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90.0, 10)
    assert run.tail_percentile(list(range(1, 201))) == (180, 90.0, 20)
    # Fewer than 100: the highest percentile with ten values beyond it.
    assert run.tail_percentile(list(range(16, 0, -1))) == (6, 37.5, 10)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3, 2)


def test_latency_percentiles_cover_only_the_named_source():
    ctx = _ctx("tracker")
    timed, walls = run.run_rounds(ctx, rounds=12)
    metrics, _ = run.end_to_end(ctx, timed, walls, [], 0.1, 1.0)
    point = sorted(d.seconds for d in timed if d.source == POINT.name)
    assert metrics["decision_p50_ms"][0] == statistics.median(point) * 1e3
    assert metrics["decision_p90_ms"][0] == point[1] * 1e3


def test_cost_guard_refuses_above_a_ceiling():
    params = unifwatch.derive_full_params(64, 0.3125, 0.1)
    plan = [workloads.cost(params)]
    assert plan[0]["intervals"] == 722_613_120
    assert run.cost_estimate(plan)[1] is False
    plan[0]["intervals"] = run.MAX_INTERVALS + 1
    estimate, refused = run.cost_estimate(plan)
    assert refused and "2e+09 interval evaluations" in estimate


def _ctx(kind: str):
    return workloads.set_up(unifwatch, TINY[kind], seed=3)


def test_every_kind_of_decision_passes_its_checks():
    for kind in TINY:
        ctx = _ctx(kind)
        decisions, _ = run.run_rounds(ctx, rounds=2)
        checked, peak_mb = run.peak_pass(ctx)
        assert peak_mb > 0
        for decision in decisions + checked:
            assert decision.errors == [], (kind, decision)
        if kind == "tracker":
            assert all(d.feed[0] == d.block[0] == d.samples for d in decisions)


def test_forced_wrong_ground_truth_raises_error_rate(monkeypatch):
    ctx = _ctx("tester")

    def error_rate():
        timed, walls = run.run_rounds(ctx, rounds=2)
        checked, peak = run.peak_pass(ctx)
        metrics, _ = run.end_to_end(ctx, timed, walls, checked, 0.1, peak)
        return metrics["error_rate"][0]

    assert error_rate() == 0.0
    monkeypatch.setattr(Workload, "expected", lambda self, source: "budget_exceeded")
    assert error_rate() == 1.0


def test_untraced_run_installs_no_wrapper(monkeypatch):
    ctx = _ctx("tester")
    originals = tracing.current_targets()
    seen = []
    decide = run.decide

    def spying_decide(*args, **kwargs):
        seen.append(tracing.current_targets())
        return decide(*args, **kwargs)

    monkeypatch.setattr(run, "decide", spying_decide)
    run.run_rounds(ctx, rounds=2)
    run.peak_pass(ctx)
    assert seen and all(targets == originals for targets in seen)

    seen.clear()
    run.traced_run(ctx, seconds=0.01)
    assert any(targets != originals for targets in seen)
    assert tracing.current_targets() == originals
