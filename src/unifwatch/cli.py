"""Command-line front end.

Exit codes: 0 for a clean run, 2 for configuration or input errors, 3 for
I/O failures.  Verdicts are data in the printed records, never exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .distances import PoissonMixture, StructureViolationError
from .full_tester import derive_full_params, run_full_tester
from .harness import (_FAMILY_SCHEMA, DistributionFamilySpec, ExperimentConfig,
                      _check_object, _check_tester_params, jsonable,
                      run_experiment, write_records_jsonl)
from .interval_tester import derive_interval_params, run_interval_tester
from .oracle import (best_interval, estimate_opt_samples,
                     exact_hellinger_poisson_vs_mixture,
                     exact_tv_poisson_vs_mixture, threshold_set_structure)
from .poisson import (SeededRng, StreamExhausted, read_frequency_vector,
                      stream_from_lines)
from .tracker import tracker_new, tracker_run
from .uniformity_tester import (UniformityTestConfig, collision_count_baseline,
                                test_uniformity)


def _emit(record: dict) -> None:
    print(json.dumps(jsonable(record)))


def _open_lines(source: str):
    """The file, or stdin for "-", as a context for one stream_from_lines."""
    if source == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(source, encoding="utf-8")


def _parse_rates(text: str) -> PoissonMixture:
    rates = [float(part) for part in text.split(",") if part.strip()]
    if not rates:
        raise ValueError("rates must be a nonempty comma-separated list")
    return PoissonMixture(np.asarray(rates))


def _overrides_from(args: argparse.Namespace) -> dict:
    overrides = {}
    for key in ("r", "s"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return overrides


def _cmd_test(args: argparse.Namespace) -> int:
    with _open_lines(args.samples) as lines:
        stream = stream_from_lines(lines)
        if args.baseline == "collision-count":
            verdict, report = collision_count_baseline(args.n, args.m, stream)
        else:
            config = UniformityTestConfig(n=args.n, m=args.m, delta=args.delta,
                                          overrides=_overrides_from(args))
            verdict, report = test_uniformity(config, stream, SeededRng(args.seed))
    _emit({"verdict": verdict.outcome, "branch": report.branch,
           "samples_requested": report.samples_requested,
           "samples_consumed": report.samples_consumed,
           "witness": verdict.witness})
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    state = tracker_new(args.n, args.delta, SeededRng(args.seed),
                        overrides=_overrides_from(args),
                        max_stage=args.max_stage)
    exhausted = False
    try:
        with _open_lines(args.stream) as lines:
            tracker_run(state, stream_from_lines(lines))
    except StreamExhausted:
        exhausted = True
    finally:
        # Resolved stages print even when a bad symbol stops the run.
        for stage in state.history:
            print(f"stage={stage.stage} m={stage.m} branch={stage.branch} "
                  f"outcome={stage.outcome} samples={stage.samples} "
                  f"stage_delta={stage.stage_delta:.6g}")
    _emit({"status": state.status, "stages_resolved": len(state.history),
           "samples_consumed": state.cumulative_samples,
           "stream_exhausted": exhausted})
    return 0


def _cmd_interval_test(args: argparse.Namespace) -> int:
    params = derive_interval_params(args.mu, args.eps, args.delta)
    with _open_lines(args.samples) as lines:
        verdict = run_interval_tester(params, stream_from_lines(lines).take(params.m))
    _emit({"verdict": verdict.outcome,
           "params": {"mu": params.mu, "tau": params.tau,
                      "x_max": params.x_max, "m": params.m},
           "witness": verdict.witness,
           "intervals_evaluated": verdict.intervals_evaluated})
    return 0


def _cmd_full_test(args: argparse.Namespace) -> int:
    freq = read_frequency_vector(args.freq)
    params = derive_full_params(n=args.n, mu=args.mu, delta=args.delta,
                                r=args.r, s=args.s, x_max=args.x_max,
                                tau=args.tau)
    verdict = run_full_tester(params, freq, SeededRng(args.seed))
    _emit({"verdict": verdict.outcome,
           "params": {"n": params.n, "mu": params.mu, "tau": params.tau,
                      "s": params.s, "r": params.r, "x_max": params.x_max},
           "witness": verdict.witness,
           "intervals_evaluated": verdict.intervals_evaluated})
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    mix = _parse_rates(args.rates)
    if args.oracle_op == "hellinger":
        value, window = exact_hellinger_poisson_vs_mixture(args.mu, mix, args.tol)
        _emit({"hellinger_sq": value, "window": window})
    elif args.oracle_op == "tv":
        value, window = exact_tv_poisson_vs_mixture(args.mu, mix, args.tol)
        _emit({"tv": value, "window": window})
    elif args.oracle_op == "best-interval":
        _emit({"best_interval": best_interval(args.mu, mix, args.x_max)})
    elif args.oracle_op == "threshold-set":
        _emit({"structure": threshold_set_structure(args.mu, mix, args.r,
                                                    args.x_max)})
    else:
        _emit({"opt_samples_proxy": estimate_opt_samples(args.mu, mix, args.tol)})
    return 0


# The JSON types each key of a simulate config may hold, object by object
# (the family and the params are checked as DistributionFamilySpec and
# ExperimentConfig check them); a null leaves the key at its default.
_CONFIG_SCHEMA = {"tester": "a string", "family": "an object", "trials": "an integer",
                  "seed": "an integer", "params": "an object or null"}


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as handle:
        raw = _check_object("config", json.load(handle), _CONFIG_SCHEMA)
    family = _check_object("config.family", raw["family"], _FAMILY_SCHEMA)
    params = _check_tester_params("config.params", raw.get("params") or {})
    config = ExperimentConfig(
        tester=raw["tester"],
        family=DistributionFamilySpec(**family),
        trials=args.trials if args.trials is not None else raw["trials"],
        seed=args.seed if args.seed is not None else raw["seed"],
        tester_params=params)
    records, summary = run_experiment(config)
    if args.out:
        write_records_jsonl(records, args.out)
    print(json.dumps(jsonable(summary)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unifwatch",
        description="Uniformity testing and tracking over finite domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="one-shot uniformity test on a sample file")
    test.add_argument("--n", type=int, required=True)
    test.add_argument("--m", type=int, required=True)
    test.add_argument("--delta", type=float, required=True)
    test.add_argument("--samples", default="-", help="symbol file or - for stdin")
    test.add_argument("--baseline", choices=["collision-count"], default=None)
    test.add_argument("--seed", type=int, default=0)
    test.add_argument("--r", type=int, default=None,
                      help="override the repeat count of the count tester")
    test.add_argument("--s", type=int, default=None,
                      help="override the split arity of the count tester")
    test.set_defaults(handler=_cmd_test)

    track = sub.add_parser("track", help="anytime uniformity tracking of a stream")
    track.add_argument("--n", type=int, required=True)
    track.add_argument("--delta", type=float, required=True)
    track.add_argument("--stream", default="-", help="symbol file or - for stdin")
    track.add_argument("--max-stage", type=int, default=None)
    track.add_argument("--seed", type=int, default=0)
    track.add_argument("--r", type=int, default=None,
                      help="override the repeat count of the count tester")
    track.add_argument("--s", type=int, default=None,
                      help="override the split arity of the count tester")
    track.set_defaults(handler=_cmd_track)

    itest = sub.add_parser("interval-test",
                           help="single-interval Poisson rate test")
    itest.add_argument("--mu", type=float, required=True)
    itest.add_argument("--eps", type=float, required=True)
    itest.add_argument("--delta", type=float, required=True)
    itest.add_argument("--samples", default="-", help="count file or - for stdin")
    itest.set_defaults(handler=_cmd_interval_test)

    ftest = sub.add_parser("full-test",
                           help="relabeling-invariant count tester on a frequency vector")
    ftest.add_argument("--n", type=int, required=True)
    ftest.add_argument("--mu", type=float, required=True)
    ftest.add_argument("--delta", type=float, required=True)
    ftest.add_argument("--freq", required=True, help="newline-delimited counts file")
    ftest.add_argument("--seed", type=int, default=0)
    ftest.add_argument("--r", type=int, default=None)
    ftest.add_argument("--s", type=int, default=None)
    ftest.add_argument("--x-max", dest="x_max", type=int, default=None)
    ftest.add_argument("--tau", type=float, default=None)
    ftest.set_defaults(handler=_cmd_full_test)

    oracle = sub.add_parser("oracle", help="brute-force reference computations")
    oracle.add_argument("oracle_op",
                        choices=["hellinger", "tv", "best-interval",
                                 "threshold-set", "opt-proxy"])
    oracle.add_argument("--mu", type=float, required=True)
    oracle.add_argument("--rates", required=True,
                        help="comma-separated mixture rates")
    oracle.add_argument("--tol", type=float, default=1e-9)
    oracle.add_argument("--x-max", dest="x_max", type=int, default=200)
    oracle.add_argument("--r", type=float, default=1.0)
    oracle.set_defaults(handler=_cmd_oracle)

    sim = sub.add_parser("simulate", help="seeded multi-trial experiments")
    sim.add_argument("--config", required=True, help="experiment config JSON")
    sim.add_argument("--seed", type=int, default=None, help="override config seed")
    sim.add_argument("--trials", type=int, default=None,
                     help="override config trials")
    sim.add_argument("--out", default=None, help="per-trial JSONL record output path")
    sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except (ValueError, KeyError, StreamExhausted, StructureViolationError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
