"""Golden corpus: seeded inputs and their exact verdicts, witnesses and counts.

Every case is a small seeded run through one public path (collision and
Poissonized branches, budget exhaustion, the tracker stage by stage, the
interval and full testers, the experiment harness, the CLI, the symbols of
non-uniform distribution streams) rendered as one JSON line with floats
written by repr.  tests/test_golden.py recomputes each case and compares
the line byte for byte.

    PYTHONPATH=src python tests/data/make_golden.py          # diff only
    PYTHONPATH=src python tests/data/make_golden.py --write  # rewrite corpus

A change that alters any line changes behaviour and must say so.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import unifwatch.uniformity_tester as ut
from unifwatch import (DistributionFamilySpec, ExperimentConfig,
                       FullTesterParams, SeededRng,
                       StreamExhausted, SymbolStream, UniformityTestConfig,
                       derive_full_params, derive_interval_params,
                       poissonized_sample_cap, realize_family,
                       run_experiment, run_full_tester, run_interval_tester,
                       stage_failure_budget, stream_from_distribution,
                       test_uniformity, tracker_feed, tracker_new,
                       tracker_run)
from unifwatch.cli import main as cli_main
from unifwatch.full_tester import _live_bounds
from unifwatch.interval_tester import interval_mass_matrix, poisson_pmf_table

GOLDEN_PATH = Path(__file__).with_name("golden.jsonl")


def jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"kind": type(value).__name__,
                **jsonable(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def render(name: str, result) -> str:
    return json.dumps({"case": name, "result": jsonable(result)}, sort_keys=True)


def _dist(family: str, n: int, **params):
    return realize_family(DistributionFamilySpec(family=family, n=n, **params))


def _stream(family: str, n: int, seed: int, **params) -> SymbolStream:
    return stream_from_distribution(_dist(family, n, **params), SeededRng(seed))


def _verdict(verdict) -> dict:
    return {"outcome": verdict.outcome, "witness": verdict.witness,
            "intervals_evaluated": verdict.intervals_evaluated}


def _uniformity(n, m, delta, stream, seed, overrides=None):
    config = UniformityTestConfig(n=n, m=m, delta=delta,
                                  overrides=overrides or {})
    verdict, report = test_uniformity(config, stream, SeededRng(seed))
    return {"verdict": _verdict(verdict), "report": report,
            "stream_consumed": stream.consumed}


def uniformity_case(family, n, m, delta, seed, overrides=None, **params):
    return lambda: _uniformity(n, m, delta, _stream(family, n, seed, **params),
                               seed + 1, overrides)


def finite_uniformity_case(family, n, m, delta, seed, length, overrides=None,
                           **params):
    """Same test read from a finite array of `length` pre-drawn symbols."""
    def run():
        symbols = _stream(family, n, seed, **params).take(length)
        try:
            return _uniformity(n, m, delta, SymbolStream(symbols), seed + 1,
                               overrides)
        except StreamExhausted:
            return {"raised": "StreamExhausted"}
    return run


@contextlib.contextmanager
def _forced_total(value):
    saved = ut._draw_total
    ut._draw_total = lambda rng, mean: value
    try:
        yield
    finally:
        ut._draw_total = saved


def budget_case(n, m, delta, seed, overrides):
    def run():
        cap, _, _ = poissonized_sample_cap(n, m, delta, overrides)
        with _forced_total(cap + 1):
            return _uniformity(n, m, delta, _stream("uniform", n, seed), seed + 1,
                               overrides)
    return run


def _tracker_summary(state) -> dict:
    return {"status": state.status, "stage": state.stage,
            "cumulative_samples": state.cumulative_samples,
            "history": state.history}


def tracker_run_case(family, n, delta, seed, max_stage, overrides=None,
                     **params):
    def run():
        state = tracker_new(n, delta, seed, overrides=overrides,
                            max_stage=max_stage)
        outcome = tracker_run(state, _stream(family, n, seed + 1, **params))
        return {"outcome": outcome, **_tracker_summary(state)}
    return run


def tracker_steps_case(family, n, delta, seed, max_stage, overrides=None,
                       **params):
    """tracker_run capped at one stage per call, recorded after each call."""
    def run():
        state = tracker_new(n, delta, seed, overrides=overrides,
                            max_stage=max_stage)
        stream = _stream(family, n, seed + 1, **params)
        steps = []
        while state.status == "plausible":
            cap = state.cumulative_samples + state.config.samples_reserved
            outcome = tracker_run(state, stream, max_samples=cap)
            steps.append([outcome, state.stage, state.cumulative_samples,
                          stream.consumed])
        return {"steps": steps, **_tracker_summary(state)}
    return run


def tracker_feed_case(family, n, delta, seed, max_stage, length,
                      overrides=None, **params):
    """Feed `length` symbols one at a time; record where each stage resolves."""
    def run():
        symbols = _stream(family, n, seed + 1, **params).take(length)
        state = tracker_new(n, delta, seed, overrides=overrides,
                            max_stage=max_stage)
        resolved = []
        for index, symbol in enumerate(symbols):
            before = len(state.history)
            outcome = tracker_feed(state, int(symbol))
            if len(state.history) > before:
                resolved.append([index, outcome])
            if outcome != "plausible":
                break
        return {"resolved": resolved, **_tracker_summary(state)}
    return run


def finite_tracker_case(family, n, delta, seed, max_stage, length,
                        overrides=None, **params):
    """tracker_run over a finite array that may run out mid-stage."""
    def run():
        symbols = _stream(family, n, seed + 1, **params).take(length)
        state = tracker_new(n, delta, seed, overrides=overrides,
                            max_stage=max_stage)
        stream = SymbolStream(symbols)
        try:
            outcome = tracker_run(state, stream)
        except StreamExhausted:
            outcome = "StreamExhausted"
        return {"outcome": outcome, "stream_consumed": stream.consumed,
                **_tracker_summary(state)}
    return run


def stream_case(family, n, seed, **params):
    """SHA-256 of consecutive take blocks of one distribution stream.

    The block sizes are 1, 7, one below the sampler's chunk and several
    chunks; the generator's next double after the blocks pins how many
    draws they consumed.
    """
    def run():
        rng = SeededRng(seed)
        stream = stream_from_distribution(_dist(family, n, **params), rng)
        blocks = [[size, hashlib.sha256(stream.take(size).tobytes()).hexdigest()]
                  for size in STREAM_BLOCKS]
        return {"blocks": blocks, "consumed": stream.consumed,
                "next_random": rng.generator.random()}
    return run


def interval_case(mu, eps, delta, rate, seed):
    def run():
        params = derive_interval_params(mu, eps, delta)
        samples = SeededRng(seed).generator.poisson(rate, size=params.m)
        return {"params": params,
                "verdict": _verdict(run_interval_tester(params, samples))}
    return run


def _full(params, rates, seed):
    rng = SeededRng(seed)
    freq = rng.child(0).generator.poisson(params.s * np.asarray(rates))
    return {"params": params,
            "verdict": _verdict(run_full_tester(params, freq, rng.child(1)))}


def full_case(n, mu, delta, rates, seed, **overrides):
    return lambda: _full(derive_full_params(n, mu, delta, **overrides), rates, seed)


def fixed_full_case(params, rates, seed):
    """The full tester at an operating point given outright, not derived."""
    return lambda: _full(params, rates, seed)


def bounds_case(n, m, delta, overrides):
    """Digests of the full tester's live-window bounds at one operating point,
    for every subset size, at live windows L from empty to the whole
    ceiling and beyond it."""
    def run():
        _, params, _ = poissonized_sample_cap(n, m, delta, overrides)
        mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
        tables = []
        for live in (0, 1, 7, params.x_max, params.x_max + 1):
            lo, hi, zero_fires = _live_bounds(params, mu_mass, live, 0, params.n)
            tables.append({
                "live": live, "shape": list(lo.shape),
                **{f"{name}_sha256": hashlib.sha256(table.tobytes()).hexdigest()
                   for name, table in (("lo", lo), ("hi", hi),
                                       ("zero_fires", zero_fires))}})
        return {"params": params, "tables": tables}
    return run


def experiment_case(tester, family, n, trials, seed, tester_params, **params):
    def run():
        config = ExperimentConfig(
            tester=tester, trials=trials, seed=seed, tester_params=tester_params,
            family=DistributionFamilySpec(family=family, n=n, **params))
        records, summary = run_experiment(config)
        summary.pop("total_wall_time")
        rows = [{k: v for k, v in dataclasses.asdict(r).items()
                 if k != "wall_time"} for r in records]
        return {"records": rows, "summary": summary}
    return run


def cli_case(command, family, n, seed, length, args, bad_at=None, **params):
    """Exit code and output of one subcommand over a file of drawn symbols.

    bad_at puts the out-of-range symbol n + 1 at that position.
    """
    def run():
        symbols = _stream(family, n, seed, **params).take(length)
        if bad_at is not None:
            symbols[bad_at] = n + 1
        flag = "--samples" if command == "test" else "--stream"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "symbols.txt"
            path.write_text("".join(f"{int(v)}\n" for v in symbols))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main([command, "--n", str(n), flag, str(path), *args])
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return run


LUMPY = [3.9] * 8 + [0.1] * 8
TRACK_STAGES = [(stage, 1 << stage) for stage in (3, 4, 5)]
# poisson.TAKE_CHUNK as the stream cases were written; fixed here, so the
# cases pin the same blocks whatever the chunk becomes
STREAM_CHUNK = 1 << 16
STREAM_BLOCKS = [1, 7, STREAM_CHUNK - 1, 3 * STREAM_CHUNK + 5]
STREAM_FAMILIES = {"heavy": ("heavy_element", {"beta": 0.2}),
                   "two_level": ("two_level", {"mass_split": 0.75,
                                               "support_split": 0.5}),
                   "subset": ("uniform_subset", {"fraction": 0.5}),
                   "point_mass": ("heavy_element", {"beta": 1.0})}

CASES = {
    # collision branch (m <= sqrt(n)/2)
    **{f"collision_uniform_accept_{s}":
       uniformity_case("uniform", 10_000, 40, 0.1, 100 + 2 * s) for s in range(3)},
    **{f"collision_subset_reject_{s}":
       uniformity_case("uniform_subset", 10_000, 50, 0.1, 200 + 2 * s,
                       fraction=0.05) for s in range(3)},
    "collision_heavy_reject": uniformity_case("heavy_element", 10_000, 10, 0.05,
                                              300, beta=0.5),
    "collision_finite_accept": finite_uniformity_case("uniform", 1000, 8, 0.2,
                                                      310, 2000),
    "collision_finite_exhausted": finite_uniformity_case("uniform", 1000, 8, 0.2,
                                                         320, 100),
    # Poissonized branch with a small r override
    **{f"poissonized_uniform_accept_{s}":
       uniformity_case("uniform", 64, 32, 0.1, 400 + 2 * s, {"r": 8})
       for s in range(3)},
    **{f"poissonized_heavy_reject_{s}":
       uniformity_case("heavy_element", 64, 6, 0.1, 500 + 2 * s, {"r": 8},
                       beta=0.5) for s in range(3)},
    "poissonized_two_level_reject": uniformity_case(
        "two_level", 64, 16, 0.1, 600, {"r": 8}, mass_split=0.8,
        support_split=0.5),
    "poissonized_finite_accept": finite_uniformity_case("uniform", 16, 8, 0.2,
                                                        610, 60_000, {"r": 8}),
    # budget_exceeded, forced through the Poisson total draw
    "budget_exceeded_64": budget_case(64, 32, 0.1, 700, {"r": 8}),
    "budget_exceeded_25": budget_case(25, 8, 0.2, 702, {"r": 2}),
    # tracker, block-driven and per symbol
    **{f"tracker_run_uniform_{s}":
       tracker_run_case("uniform", 256, 0.2, 800 + 2 * s, 3) for s in range(2)},
    "tracker_run_poissonized_stage": tracker_run_case("uniform", 25, 0.2, 810, 2,
                                                      {"r": 2}),
    "tracker_run_heavy_reject": tracker_run_case("heavy_element", 64, 0.2, 820, 5,
                                                 {"r": 8}, beta=0.5),
    "tracker_run_point_mass": tracker_run_case("heavy_element", 64, 0.2, 830, 5,
                                               {"r": 8}, beta=1.0),
    "tracker_steps_uniform": tracker_steps_case("uniform", 256, 0.2, 840, 3),
    "tracker_steps_poissonized": tracker_steps_case("uniform", 25, 0.2, 850, 3,
                                                    {"r": 2}),
    "tracker_feed_uniform": tracker_feed_case("uniform", 256, 0.2, 800, 3, 3307),
    "tracker_feed_heavy": tracker_feed_case("heavy_element", 64, 0.2, 820, 5,
                                            50_000, {"r": 8}, beta=0.5),
    "tracker_feed_poissonized": tracker_feed_case("uniform", 25, 0.2, 810, 2,
                                                  119_689, {"r": 2}),
    "tracker_finite_exhausted": finite_tracker_case("uniform", 256, 0.2, 860, 3,
                                                    1000),
    "tracker_finite_complete": finite_tracker_case("uniform", 256, 0.2, 870, 3,
                                                   3307),
    # interval tester
    **{f"interval_{tag}_{s}": interval_case(2.0, 0.5, 0.1, rate, 900 + s)
       for tag, rate in (("null", 2.0), ("shifted", 2.6)) for s in range(2)},
    "interval_small_mu": interval_case(0.3, 1.0, 0.2, 0.3, 910),
    # full tester
    **{f"full_null_{s}": full_case(16, 2.0, 0.2, [2.0] * 16, 1000 + s, r=48)
       for s in range(2)},
    **{f"full_lumpy_{s}": full_case(16, 2.0, 0.2, LUMPY, 1010 + s, r=48)
       for s in range(2)},
    "full_tiny_null": full_case(4, 0.5, 0.5, [0.5] * 4, 1020, r=2, x_max=8, s=300),
    "full_tiny_far": full_case(4, 0.5, 0.5, [2.0, 0.003, 0.003, 0.003], 1030,
                               r=2, x_max=8, s=300),
    # first rejections after repeat 0: at repeat 1 in the second K_BLOCK
    # block of k, and at repeat 5 inside the batch of repeats 3..6
    "full_late_second_block": fixed_full_case(
        FullTesterParams(n=200, mu=1.0, tau=0.1, s=20, r=8, x_max=6),
        [1.03] * 100 + [0.97] * 100, 338),
    "full_late_batch": full_case(16, 2.0, 0.2, [2.0 + 0.14] * 8 + [2.0 - 0.14] * 8,
                                 7070, r=24),
    # scaled bounds at the benchmark's operating points
    "bounds_scan_heavy": bounds_case(64, 8, 0.1, {}),
    "bounds_split_heavy": bounds_case(1000, 64, 0.1, {"r": 16}),
    **{f"bounds_track_stage{stage}":
       bounds_case(64, m, stage_failure_budget(0.2, stage), {"r": 64})
       for stage, m in TRACK_STAGES},
    # experiment harness, wall times dropped
    "experiment_uniformity_collision": experiment_case(
        "uniformity", "uniform", 1000, 4, 1100, {"m": 10, "delta": 0.1}),
    "experiment_uniformity_poissonized": experiment_case(
        "uniformity", "heavy_element", 64, 3, 1110,
        {"m": 6, "delta": 0.1, "overrides": {"r": 8}}, beta=0.5),
    "experiment_tracker": experiment_case(
        "tracker", "uniform", 256, 3, 1120, {"delta": 0.2, "max_stage": 3}),
    "experiment_tracker_max_samples": experiment_case(
        "tracker", "heavy_element", 64, 3, 1130,
        {"delta": 0.2, "max_samples": 5000, "overrides": {"r": 8}}, beta=0.5),
    "experiment_baseline": experiment_case(
        "baseline", "uniform", 100, 5, 1140, {"m": 50}),
    # CLI stdout
    "cli_test_collision": cli_case("test", "uniform", 1000, 1200, 2000,
                                   ["--m", "8", "--delta", "0.2", "--seed", "3"]),
    "cli_test_poissonized": cli_case("test", "heavy_element", 16, 1210, 60_000,
                                     ["--m", "8", "--delta", "0.2", "--seed", "4",
                                      "--r", "8"], beta=0.5),
    "cli_test_baseline": cli_case("test", "uniform", 100, 1220, 50,
                                  ["--m", "50", "--delta", "0.1",
                                   "--baseline", "collision-count"]),
    "cli_test_exhausted": cli_case("test", "uniform", 1000, 1230, 100,
                                   ["--m", "8", "--delta", "0.2"]),
    "cli_track_exhausted_budget": cli_case("track", "uniform", 256, 1240, 3307,
                                           ["--delta", "0.2", "--max-stage", "3",
                                            "--seed", "5"]),
    "cli_track_stream_exhausted": cli_case("track", "uniform", 256, 1250, 1000,
                                           ["--delta", "0.2", "--seed", "6"]),
    "cli_track_bad_symbol": cli_case("track", "uniform", 256, 1270, 3307,
                                     ["--delta", "0.2", "--max-stage", "3"],
                                     bad_at=600),
    "cli_track_reject": cli_case("track", "heavy_element", 64, 1260, 20_000,
                                 ["--delta", "0.2", "--seed", "7", "--r", "8"],
                                 beta=0.5),
    # non-uniform stream symbols, block by block
    **{f"stream_{tag}_{n}": stream_case(family, n, 1300 + n, **params)
       for n in (64, 1000) for tag, (family, params) in STREAM_FAMILIES.items()},
}


def compute(name: str) -> str:
    return render(name, CASES[name]())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the corpus instead of diffing against it")
    args = parser.parse_args(argv)
    lines = [compute(name) for name in CASES]
    if args.write:
        GOLDEN_PATH.write_text("".join(line + "\n" for line in lines))
        print(f"wrote {len(lines)} cases to {GOLDEN_PATH}")
        return 0
    stored = GOLDEN_PATH.read_text().splitlines() if GOLDEN_PATH.exists() else []
    differ = [name for name, line in zip(CASES, lines)
              if line not in stored]
    missing = len(stored) - len(set(stored) & set(lines))
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(lines)} cases, {len(differ)} differ, "
          f"{missing} stored lines unmatched")
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
