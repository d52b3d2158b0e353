"""The benchmark's workloads: inputs, one decision each, and its output checks.

A decision is one closed-loop call into the library's public API: the next
starts when the previous returns.  Every input derives from the workload
seed and the decision index, so the same (seed, index) always gives the
same inputs; the library sees only those inputs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable

ACCEPT, REJECT = "accept", "reject"
TRACK_NULL = "budget_exhausted"


@dataclass(frozen=True)
class Source:
    """A distribution family to draw from; uniform sources are the null.

    On track, feed=False runs the tracker in blocks only, without also
    feeding the same symbols one at a time.
    """

    name: str
    family: str
    params: dict = field(default_factory=dict)
    feed: bool = True

    @property
    def uniform(self) -> bool:
        return self.family == "uniform"


@dataclass
class Decision:
    """One decision's outcome, its sample and work counts, and failed checks."""

    source: str
    uniform: bool
    outcome: str
    samples: int
    witness: object
    intervals: int | None
    errors: list[str]
    seconds: float = 0.0
    proxy: int | None = None
    # Track only: symbols and seconds through tracker_feed / tracker_run, and
    # the longest single tracker_feed call.
    feed: tuple[int, float, float] | None = None
    block: tuple[int, float] | None = None
    peak_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    """A closed loop over `sources`; `checks` run only in the untimed pass.

    The latency percentiles are over the decisions of the source named
    `latency`, or over every decision when it is empty.
    """

    name: str
    kind: str                # "tester", "harness" or "tracker"
    n: int
    delta: float
    sources: tuple[Source, ...]
    checks: tuple[Source, ...] = ()
    m: int = 0
    overrides: dict = field(default_factory=dict)
    max_stage: int = 0
    latency: str = ""

    def distinct_sources(self) -> tuple[Source, ...]:
        """Each source and check source once, in order of first use."""
        return tuple({s.name: s for s in self.sources + self.checks}.values())

    def expected(self, source: Source) -> str:
        if not source.uniform:
            return REJECT
        return TRACK_NULL if self.kind == "tracker" else ACCEPT


UNIFORM = Source("uniform", "uniform")
HEAVY_HALF = Source("heavy_0.5", "heavy_element", {"beta": 0.5})

WORKLOADS = {
    # Accept path at the derived operating point: every repeat scans every
    # interval, so the full_tester scan is nearly all of the time.
    "scan_heavy": Workload(
        name="scan_heavy", kind="tester", n=64, m=8, delta=0.1,
        sources=(UNIFORM,),
        checks=(HEAVY_HALF,)),
    # simulate path at n=1000 with r=16: splitting and the bounds arrays
    # dominate, the scan is short.
    "split_heavy": Workload(
        name="split_heavy", kind="harness", n=1000, m=64, delta=0.1,
        overrides={"r": 16},
        sources=(UNIFORM,
                 Source("heavy_0.2", "heavy_element", {"beta": 0.2}),
                 Source("two_level_0.75_0.5", "two_level",
                        {"mass_split": 0.75, "support_split": 0.5}),
                 Source("subset_0.5", "uniform_subset", {"fraction": 0.5}))),
    # The anytime tracker, driven in blocks and fed one symbol at a time:
    # the same layer used two ways.  A uniform decision takes 4 s and a
    # non-uniform one about 1 ms, so the latency percentiles are over the
    # heavy_element(0.5) decisions alone, which all reject at stage 2.
    # Uniform decisions in blocks only (0.16 s each) space those out, so a
    # burst of outside interference lasting some tens of ms slows a few of
    # them rather than a tenth; they also give the block rate more to time.
    "track": Workload(
        name="track", kind="tracker", n=64, delta=0.2, overrides={"r": 64},
        max_stage=5, latency=HEAVY_HALF.name,
        sources=(UNIFORM,) + (
            Source("uniform_blocks", "uniform", feed=False),
            Source("point_mass", "heavy_element", {"beta": 1.0}),
            HEAVY_HALF, HEAVY_HALF) * 8),
}


@dataclass
class Context:
    """What set-up derives once per run: distributions, proxies, parameters."""

    workload: Workload
    seed: int
    uw: object
    specs: dict
    dists: dict
    proxies: dict
    cap: int = 0
    params: object = None
    stage_targets: list[int] = field(default_factory=list)
    plan: list[dict] = field(default_factory=list)
    take: Callable | None = None


def set_up(uw, workload: Workload, seed: int) -> Context:
    """Realize the families, derive parameters and seed the first inputs."""
    specs, dists, proxies = {}, {}, {}
    uniform = uw.DiscreteDistribution.uniform(workload.n)
    for source in workload.distinct_sources():
        specs[source.name] = uw.DistributionFamilySpec(
            family=source.family, n=workload.n, seed=seed, **source.params)
        dists[source.name] = uw.realize_family(specs[source.name])
        h2 = uw.hellinger_sq(dists[source.name], uniform)
        proxies[source.name] = math.ceil(1.0 / h2) if h2 > 0 else None
    ctx = Context(workload=workload, seed=seed, uw=uw, specs=specs,
                  dists=dists, proxies=proxies)
    plan = []
    if workload.kind == "tracker":
        for stage in range(workload.max_stage + 1):
            m = 1 << stage
            stage_delta = uw.stage_failure_budget(workload.delta, stage)
            ctx.stage_targets.append(uw.stage_sample_target(
                workload.n, m, stage_delta, workload.overrides))
            if m > math.sqrt(workload.n) / 2.0:
                plan.append(uw.poissonized_sample_cap(
                    workload.n, m, stage_delta, workload.overrides)[1])
    else:
        ctx.cap, ctx.params, _ = uw.poissonized_sample_cap(
            workload.n, workload.m, workload.delta, workload.overrides)
        plan.append(ctx.params)
    ctx.plan = [cost(p) for p in plan]
    # The unwrapped take: a track decision draws through it from inside the
    # stream that tracker_run reads, so a traced run records one span per read.
    ctx.take = uw.poisson.SymbolStream.take
    # Stream seeding counts as set-up: build one stream per source.
    stream_rng, _ = _rngs(ctx, 0)
    for source in workload.distinct_sources():
        uw.stream_from_distribution(dists[source.name], stream_rng)
    return ctx


def cost(params) -> dict:
    """Worst-case interval evaluations and bounds bytes of one full-tester call."""
    width = params.x_max + 1
    return {"n": params.n, "r": params.r, "s": params.s, "x_max": params.x_max,
            "intervals": params.r * params.n * width * (width + 1) // 2,
            "bounds_bytes": 2 * params.n * width * width * 8}


def _rngs(ctx: Context, index: int):
    rng = ctx.uw.SeededRng
    return rng(ctx.seed, (index, 0)), rng(ctx.seed, (index, 1))


def decide(ctx: Context, source: Source, index: int,
           feed: bool = True) -> Decision:
    """Run one decision through the library and check its outputs.

    feed=False skips the tracker_feed path of every track decision.
    """
    if ctx.workload.kind == "tracker":
        decision = _decide_tracker(ctx, source, index, feed and source.feed)
    elif ctx.workload.kind == "harness":
        decision = _decide_harness(ctx, source, index)
    else:
        decision = _decide_tester(ctx, source, index)
    decision.proxy = ctx.proxies[source.name]
    expected = ctx.workload.expected(source)
    if decision.outcome != expected:
        decision.errors.append(
            f"{source.name}: {decision.outcome}, expected {expected}")
    return decision


def _witness(witness) -> object:
    if witness is None or isinstance(witness, dict):
        return witness
    return {"kind": type(witness).__name__, **dataclasses.asdict(witness)}


def _decide_tester(ctx, source, index):
    uw = ctx.uw
    w = ctx.workload
    config = uw.UniformityTestConfig(n=w.n, m=w.m, delta=w.delta,
                                     overrides=w.overrides)
    stream_rng, test_rng = _rngs(ctx, index)
    stream = uw.stream_from_distribution(ctx.dists[source.name], stream_rng)
    verdict, report = uw.uniformity_tester.test_uniformity(config, stream, test_rng)
    errors = []
    if report.samples_consumed > report.samples_requested:
        errors.append(f"consumed {report.samples_consumed} > requested "
                      f"{report.samples_requested}")
    bound = cost(ctx.params)["intervals"]
    if verdict.intervals_evaluated > bound:
        errors.append(f"intervals {verdict.intervals_evaluated} > bound {bound}")
    return Decision(source=source.name, uniform=source.uniform,
                    outcome=verdict.outcome, samples=report.samples_consumed,
                    witness=_witness(verdict.witness),
                    intervals=verdict.intervals_evaluated, errors=errors)


def _decide_harness(ctx, source, index):
    uw = ctx.uw
    w = ctx.workload
    config = uw.ExperimentConfig(
        tester="uniformity", family=ctx.specs[source.name], trials=1,
        seed=(ctx.seed << 32) + index,
        tester_params={"m": w.m, "delta": w.delta, "overrides": w.overrides})
    records, summary = uw.harness.run_experiment(config)
    record = records[0]
    errors = []
    if record.samples_consumed > ctx.cap:
        errors.append(f"consumed {record.samples_consumed} > cap {ctx.cap}")
    if summary["verdicts"].get(record.verdict, {}).get("count") != 1:
        errors.append(f"summary disagrees with record: {summary['verdicts']}")
    # The harness record carries no interval count; the traced run checks it.
    return Decision(source=source.name, uniform=source.uniform,
                    outcome=record.verdict, samples=record.samples_consumed,
                    witness=record.witness, intervals=None, errors=errors)


def _decide_tracker(ctx, source, index, feed_path):
    uw = ctx.uw
    w = ctx.workload
    stream_rng, tracker_rng = _rngs(ctx, index)
    stream = uw.stream_from_distribution(ctx.dists[source.name], stream_rng)
    tracker = uw.tracker
    blocks = []

    def sampler(k: int):
        # Keep what tracker_run reads, to feed the same symbols one by one.
        block = ctx.take(stream, k)
        blocks.append(block)
        return block

    by_block = tracker.tracker_new(w.n, w.delta, tracker_rng,
                                   overrides=w.overrides, max_stage=w.max_stage)
    start = time.perf_counter()
    tracker.tracker_run(by_block, uw.poisson.SymbolStream(sampler))
    block_s = time.perf_counter() - start
    states = [("run", by_block)]
    decision = Decision(source=source.name, uniform=source.uniform,
                        outcome=by_block.status,
                        samples=by_block.cumulative_samples,
                        witness=[[h.stage, h.m, h.branch, h.outcome, h.samples]
                                 for h in by_block.history],
                        intervals=None, errors=[],
                        block=(by_block.cumulative_samples, block_s))

    if feed_path:
        symbols = []
        for block in blocks:
            symbols.extend(block.tolist())
        by_symbol = tracker.tracker_new(w.n, w.delta, tracker_rng,
                                        overrides=w.overrides,
                                        max_stage=w.max_stage)
        feed = tracker.tracker_feed
        feed_s = stall = 0.0
        # tracker_feed resolves a stage on the symbol that fills its target.
        # The symbols before it go through in one timed loop with no clock
        # read per symbol; the resolving call is timed alone.
        start = 0
        for stage, end in enumerate(itertools.accumulate(ctx.stage_targets)):
            if end > len(symbols):
                break
            segment, last = symbols[start:end - 1], symbols[end - 1]
            began = time.perf_counter()
            for symbol in segment:
                feed(by_symbol, symbol)
            resolving = time.perf_counter()
            status = feed(by_symbol, last)
            done = time.perf_counter()
            feed_s += done - began
            stall = max(stall, done - resolving)
            start = end
            if len(by_symbol.history) != stage + 1:
                decision.errors.append(
                    f"feed: stage {stage} did not resolve on symbol {end}")
                break
            if status != tracker.PLAUSIBLE:
                break
        decision.feed = (by_symbol.cumulative_samples, feed_s, stall)
        states.append(("feed", by_symbol))
        if (by_block.status, by_block.cumulative_samples, by_block.history) != (
                by_symbol.status, by_symbol.cumulative_samples, by_symbol.history):
            decision.errors.append(
                f"feed ({by_symbol.status}, {by_symbol.cumulative_samples}) != "
                f"run ({by_block.status}, {by_block.cumulative_samples})")

    reserved = sum(ctx.stage_targets)
    for label, state in states:
        charged = sum(record.samples for record in state.history)
        if state.cumulative_samples != charged:
            decision.errors.append(f"{label}: cumulative {state.cumulative_samples}"
                                   f" != charged {charged}")
        if charged > reserved:
            decision.errors.append(f"{label}: charged {charged} > reserved {reserved}")
    return decision
