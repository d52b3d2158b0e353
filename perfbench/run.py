"""unifwatch benchmark: closed-loop decisions through the public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_heavy --seed 1 --seconds 30 --trace 0

--trace 0 times the workload with no wrapper installed and prints the
end-to-end metrics.  --trace 1 runs the same decisions untraced and then
again with timing wrappers (see tracing.py), and prints the per-layer
metrics, the tracing overhead and the share of wall time no span covers.
Both check every decision's outputs.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Each run also
writes its decisions, environment and (traced) spans to .perfbench_out/.
One process, one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Decision, decide, set_up  # noqa: E402

SETUP_REPEATS = 5
DIGEST_DECISIONS = 6        # every workload completes this many in a run
PEAK_INDEX = 1_000_000      # decision indexes of the untimed peak-memory pass
MIB = float(1 << 20)

# Cost guard: a run refuses to start when one full-tester call could exceed
# either ceiling.  The largest call today is scan_heavy's 7.2e8 intervals and
# split_heavy's 90 MB of bounds.
MAX_INTERVALS = 2_000_000_000
MAX_BOUNDS_BYTES = 256 << 20


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """p90 when there are >= 100 values, else the highest percentile with
    >= 10 values beyond it (the smallest value when there are fewer than 11).

    Nearest rank on the sorted values.  Returns (value, percentile, beyond).
    """
    ordered = sorted(values)
    count = len(ordered)
    rank = max(0, min(-(-9 * count // 10) - 1, count - 11))
    return ordered[rank], 100.0 * (rank + 1) / count, count - rank - 1


def cost_estimate(plan: list[dict]) -> tuple[str, bool]:
    """The worst full-tester call in the plan, and whether it is over a ceiling."""
    intervals = max(c["intervals"] for c in plan)
    bounds = max(c["bounds_bytes"] for c in plan)
    estimate = (f"{intervals:.3g} interval evaluations and {bounds / MIB:.1f} "
                f"MiB of bounds per full-tester call")
    return estimate, intervals > MAX_INTERVALS or bounds > MAX_BOUNDS_BYTES


def environment() -> dict:
    """Machine and software the numbers were measured on."""
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "cpu_model": platform.processor() or platform.machine(),
           "python": platform.python_version(), "numpy": metadata.version("numpy"),
           "commit": _commit()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            env[f"l{level}_size"] = size
    return env


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fresh_set_up(workload, seed: int):
    """Import unifwatch from scratch, then set the workload up; returns (s, ctx)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "unifwatch"]:
        del sys.modules[name]
    start = time.perf_counter()
    uw = importlib.import_module("unifwatch")
    ctx = set_up(uw, workload, seed)
    return time.perf_counter() - start, ctx


def run_rounds(ctx, seconds: float = 0.0, rounds: int | None = None,
               first_index: int = 0, sources=None, tracer=None,
               measure_peak: bool = False) -> tuple[list[Decision], list[float]]:
    """Closed loop over whole rounds (one decision per source, in order).

    Stops after `rounds` rounds, or else at the first round boundary after
    `seconds`.  Returns the decisions and each round's wall time.  With
    measure_peak, each decision runs under tracemalloc and `peak_bytes` on
    the decision holds its peak.
    """
    sources = sources or ctx.workload.sources
    decisions = []
    walls = []
    start = time.perf_counter()
    done = 0
    while True:
        round_start = time.perf_counter()
        for offset, source in enumerate(sources):
            index = first_index + done * len(sources) + offset
            if tracer is not None:
                tracer.decision = index
            if measure_peak:
                tracemalloc.start()
            began = time.perf_counter()
            try:
                decision = decide(ctx, source, index, feed=not measure_peak)
            except Exception as exc:  # a decision that raises is a failed one
                traceback.print_exc(file=sys.stderr)
                decision = Decision(source=source.name, uniform=source.uniform,
                                    outcome="raised", samples=0, witness=None,
                                    intervals=None, errors=[repr(exc)],
                                    proxy=ctx.proxies[source.name])
            decision.seconds = time.perf_counter() - began
            if measure_peak:
                decision.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            decisions.append(decision)
        walls.append(time.perf_counter() - round_start)
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return decisions, walls


def peak_pass(ctx) -> tuple[list[Decision], float]:
    """One untimed decision per distinct source and check source under tracemalloc.

    On track only the tracker_run path runs here: tracker_feed re-derives
    its parameters on every symbol, which tracemalloc slows about fivefold.
    """
    decisions, _ = run_rounds(ctx, rounds=1, first_index=PEAK_INDEX,
                              sources=ctx.workload.distinct_sources(),
                              measure_peak=True)
    return decisions, max(d.peak_bytes for d in decisions) / MIB


def digest(decisions: list[Decision]) -> str:
    """Hash of (source, outcome, witness, samples, intervals) over decisions."""
    rows = [[d.source, d.outcome, d.witness, d.samples, d.intervals]
            for d in decisions]
    text = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def end_to_end(ctx, timed: list[Decision], walls: list[float],
               checked: list[Decision], setup_s: float, peak_mb: float
               ) -> tuple[dict, list[str]]:
    """The end-to-end metrics and the notes printed beside them.

    Rates and stalls are taken per round and reported as the median over
    rounds, so that a few seconds of interference from outside the process
    move them little.
    """
    latency_source = ctx.workload.latency
    latencies = [d.seconds for d in timed
                 if not latency_source or d.source == latency_source]
    tail, percentile, beyond = tail_percentile(latencies)
    size = len(ctx.workload.sources)
    rounds = [timed[i:i + size] for i in range(0, len(timed), size)]
    if ctx.workload.kind == "tracker":
        fed = [[d.feed for d in r if d.feed] for r in rounds]
        blocks = [[d.block for d in r if d.block] for r in rounds]
        symbols_per_s = [sum(f[0] for f in fs) / sum(f[1] for f in fs) for fs in fed]
        block_per_s = [sum(b[0] for b in bs) / sum(b[1] for b in bs) for bs in blocks]
        stall = [max(f[2] for f in fs) for fs in fed]
    else:
        # Every read is one block read inside the decision call.
        samples = [sum(d.samples for d in r) for r in rounds]
        symbols_per_s = [n / w for n, w in zip(samples, walls)]
        block_per_s = [n / sum(d.seconds for d in r) for n, r in zip(samples, rounds)]
        stall = [max(d.seconds for d in r) for r in rounds]
    median = statistics.median
    everything = timed + checked
    null = [d.samples for d in everything if d.uniform]
    ratios = [d.samples / d.proxy for d in everything if not d.uniform]
    failed = sum(1 for d in everything if d.errors)
    metrics = {
        "setup_s": (setup_s, "s"),
        "decisions_per_s": (median(len(r) / w for r, w in zip(rounds, walls)),
                            "1/s"),
        "decision_p50_ms": (median(latencies) * 1e3, "ms"),
        "decision_p90_ms": (tail * 1e3, "ms"),
        "symbols_per_s": (median(symbols_per_s), "1/s"),
        "block_symbols_per_s": (median(block_per_s), "1/s"),
        "stall_ms_max": (median(stall) * 1e3, "ms"),
        "samples_over_proxy": (statistics.fmean(ratios), "ratio"),
        "null_samples": (statistics.fmean(null), "count"),
        "error_rate": (failed / len(everything), "ratio"),
        "peak_mb": (peak_mb, "MiB"),
    }
    over = f"{latency_source} decisions" if latency_source else "decisions"
    notes = [f"{len(rounds)} rounds of {size} decisions",
             f"decision_p50_ms and decision_p90_ms are over {len(latencies)} "
             f"timed {over}; decision_p90_ms is their p{percentile:.1f}, "
             f"{beyond} beyond it",
             f"samples_over_proxy over {len(ratios)} non-uniform decisions; "
             f"null_samples over {len(null)} uniform ones",
             f"error_rate: {failed} of {len(everything)} decisions failed"]
    return metrics, notes


def per_layer(tracer, decisions: list[Decision], wall: float,
              untraced_s: float, peaks: list[int]) -> dict:
    """Per-layer metrics of the traced replay, per decision where it says so."""
    count = len(decisions)
    traced_s = sum(d.seconds for d in decisions)

    def calls(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))[0] / count

    def busy(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))[1] / count

    def own(name):
        return tracer.stats.get(name, (0, 0.0, 0.0))[2] / count

    def share(seconds_per_decision):
        return 100.0 * seconds_per_decision * count / traced_s

    def counter(name):
        return tracer.counters.get(name, 0) / count

    intervals = counter("full_tester.intervals_evaluated")
    requested = counter("uniformity_tester.samples_requested")
    return {
        "full_tester.run.calls": (calls("full_tester.run"), "count"),
        "full_tester.run.busy_s": (busy("full_tester.run"), "s"),
        "full_tester.run.self_s": (own("full_tester.run"), "s"),
        "full_tester.intervals_evaluated": (intervals, "count"),
        "full_tester.ns_per_interval": (
            own("full_tester.run") / intervals * 1e9 if intervals else 0.0, "ns"),
        "full_tester.derive.calls": (calls("full_tester.derive"), "count"),
        "full_tester.derive.busy_s": (busy("full_tester.derive"), "s"),
        "full_tester.peak_mb": (max(peaks, default=0) / MIB, "MiB"),
        "poisson.split.calls": (calls("poisson.split"), "count"),
        "poisson.split.busy_s": (busy("poisson.split"), "s"),
        "poisson.take.calls": (calls("poisson.take"), "count"),
        "poisson.take.symbols": (counter("poisson.take.symbols"), "count"),
        "poisson.take.busy_s": (busy("poisson.take"), "s"),
        "poisson.poissonize.busy_s": (busy("poisson.poissonize"), "s"),
        "interval_tester.mass_matrix.busy_s": (
            busy("interval_tester.mass_matrix"), "s"),
        "uniformity_tester.test.calls": (calls("uniformity_tester.test"), "count"),
        "uniformity_tester.test.self_s": (own("uniformity_tester.test"), "s"),
        "uniformity_tester.collision.calls": (
            calls("uniformity_tester.collision"), "count"),
        "uniformity_tester.poissonized.calls": (
            counter("uniformity_tester.poissonized.calls"), "count"),
        "uniformity_tester.cap.calls": (calls("uniformity_tester.cap"), "count"),
        "uniformity_tester.cap.busy_s": (busy("uniformity_tester.cap"), "s"),
        "uniformity_tester.samples_consumed": (
            counter("uniformity_tester.samples_consumed"), "count"),
        "uniformity_tester.samples_requested": (requested, "count"),
        "uniformity_tester.read_over_reserved": (
            counter("uniformity_tester.samples_consumed") / requested
            if requested else 0.0, "ratio"),
        "tracker.feed.calls": (calls("tracker.feed"), "count"),
        "tracker.feed.self_pct": (share(own("tracker.feed")), "%"),
        "tracker.run.self_pct": (share(own("tracker.run")), "%"),
        "tracker.stage_target.calls": (calls("tracker.stage_target"), "count"),
        "tracker.stage_target.busy_pct": (share(busy("tracker.stage_target")), "%"),
        "tracker.stages_resolved": (
            sum(len(d.witness) for d in decisions
                if isinstance(d.witness, list)) / count, "count"),
        "tracker.samples_charged": (
            sum(d.samples for d in decisions
                if isinstance(d.witness, list)) / count, "count"),
        "harness.trial.calls": (calls("harness.trial"), "count"),
        "harness.trial.self_pct": (share(own("harness.trial")), "%"),
        "harness.summarize.busy_pct": (share(busy("harness.summarize")), "%"),
        "trace_overhead": (100.0 * (traced_s / untraced_s - 1.0), "%"),
        "trace_uncovered_pct": (100.0 * (wall - tracer.root_s) / wall, "%"),
    }


def traced_run(ctx, seconds: float):
    """Untraced rounds for half the time, then the same rounds traced."""
    untraced, _ = run_rounds(ctx, seconds=seconds / 2)
    rounds = len(untraced) // len(ctx.workload.sources)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced, walls = run_rounds(ctx, rounds=rounds, tracer=tracer)
    finally:
        uninstall()
    peaks: list[int] = []
    undo = tracing.install_peak_probe(peaks)
    try:
        checked, _ = peak_pass(ctx)
    finally:
        undo()
    if digest(traced) != digest(untraced):
        traced[0].errors.append("tracing changed a verdict, witness or count")
    if tracer.counters.get("full_tester.interval_bound_violations"):
        traced[0].errors.append("intervals_evaluated above r*n*(x_max+1)(x_max+2)/2")
    metrics = per_layer(tracer, traced, sum(walls),
                        sum(d.seconds for d in untraced), peaks)
    return untraced + traced, checked, metrics, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "unifwatch").is_dir():
        print(f"perfbench: no library source at {ROOT / 'src' / 'unifwatch'}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    env = environment()

    # Cost guard, before any timing: the first import and set-up are untimed.
    _, ctx = fresh_set_up(workload, args.seed)
    estimate, refused = cost_estimate(ctx.plan)
    if refused:
        print(f"perfbench: refusing {args.workload}: {estimate} (ceilings "
              f"{MAX_INTERVALS:.3g} and {MAX_BOUNDS_BYTES / MIB:.0f} MiB)",
              file=sys.stderr)
        return 2

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, ctx = fresh_set_up(workload, args.seed)
        setups.append(seconds)
    setup_s = statistics.median(setups)
    targets_before = tracing.current_targets()

    tracer = None
    if args.trace:
        timed, checked, metrics, tracer = traced_run(ctx, args.seconds)
        notes = []
    else:
        timed, walls = run_rounds(ctx, seconds=args.seconds)
        checked, peak_mb = peak_pass(ctx)
        if tracing.current_targets() != targets_before:
            timed[0].errors.append("a wrapper was installed in an untraced run")
        metrics, notes = end_to_end(ctx, timed, walls, checked, setup_s, peak_mb)

    everything = timed + checked
    failed = sum(1 for d in everything if d.errors)
    l3 = env.get("l3_size", "unknown")
    env["working_set"] = {
        "bounds_mib": max(c["bounds_bytes"] for c in ctx.plan) / MIB, "l3": l3}
    first = digest(timed[:DIGEST_DECISIONS])
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# cost {estimate}; bounds working set vs L3 {l3}")
    print(f"# set-up {SETUP_REPEATS} times: "
          + ", ".join(f"{s:.4f}" for s in setups) + " s")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(f"# digest of the first {min(len(timed), DIGEST_DECISIONS)} decisions: "
          f"{first}")
    for decision in everything:
        for error in decision.errors:
            print(f"# FAILED {error}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "plan": ctx.plan, "setups": setups,
              "digest": first, "metrics": metrics,
              "decisions": [vars(d) for d in everything]}
    if tracer is not None:
        record["stats"] = tracer.stats
        record["counters"] = tracer.counters
        record["spans"] = tracer.spans
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=repr))

    print(json.dumps({
        "correct": failed == 0, "attempted": len(everything), "failed": failed,
        # error_rate is 0 on a good run, so it travels as failed / attempted.
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if name != "error_rate"}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
