"""Command-line front end.

Exit codes: 0 for a clean run, 2 for configuration or input errors, 3 for
I/O failures.  Verdicts are data in the printed records, never exit codes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any

import numpy as np

from .distances import PoissonMixture, StructureViolationError
from .full_tester import derive_full_params, run_full_tester
from .harness import (DistributionFamilySpec, ExperimentConfig, run_experiment,
                      write_records_csv, write_records_jsonl)
from .interval_tester import derive_interval_params, run_interval_tester
from .oracle import (best_interval, estimate_opt_samples,
                     exact_hellinger_poisson_vs_mixture,
                     exact_tv_poisson_vs_mixture, threshold_set_structure)
from .poisson import (SeededRng, StreamExhausted, SymbolStream,
                      read_frequency_vector, read_symbols)
from .tracker import tracker_new, tracker_run
from .uniformity_tester import (UniformityTestConfig, collision_count_baseline,
                                test_uniformity)


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = dataclasses.asdict(value)
        # A dataclass may carry its own "kind" discriminant; keep it.
        payload.setdefault("kind", type(value).__name__)
        return _jsonable(payload)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _emit(record: dict) -> None:
    print(json.dumps(_jsonable(record)))


def _read_symbol_lines(source: str) -> np.ndarray:
    if source == "-":
        return read_symbols(sys.stdin)
    with open(source, encoding="utf-8") as handle:
        return read_symbols(handle)


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
    stream = SymbolStream(_read_symbol_lines(args.samples))
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
    stream = SymbolStream(_read_symbol_lines(args.stream))
    exhausted = False
    try:
        tracker_run(state, stream)
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
    samples = _read_symbol_lines(args.samples)
    if samples.size > params.m:
        samples = samples[:params.m]
    verdict = run_interval_tester(params, samples)
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


# The JSON types each key of a simulate config may hold, object by object;
# a null leaves the key at its default.
_JSON_TYPES = {"an integer": (int,), "a number": (int, float), "a string": (str,),
               "an array": (list,), "an object": (dict,), "null": (type(None),)}
_CONFIG_SCHEMA = {"tester": "a string", "family": "an object", "trials": "an integer",
                  "seed": "an integer", "params": "an object or null"}
_FAMILY_SCHEMA = {"family": "a string", "n": "an integer", "seed": "an integer",
                  "probs": "an array or null", **dict.fromkeys(
                      ("beta", "fraction", "mass_split", "support_split"), "a number or null")}
_PARAMS_SCHEMA = {"m": "an integer", "delta": "a number", "overrides": "an object or null",
                  **dict.fromkeys(("max_stage", "max_samples"), "an integer or null")}
_OVERRIDES_SCHEMA = {"tau": "a number or null",
                     **dict.fromkeys(("r", "s", "x_max"), "an integer or null")}


def _check_type(where: str, value: Any, kinds: str) -> None:
    allowed = sum((_JSON_TYPES[kind] for kind in kinds.split(" or ")), ())
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"{where} must be {kinds}, got {json.dumps(value)[:40]}")


def _check_object(where: str, value: Any, schema: dict) -> dict:
    """value, once it is an object whose keys are all in schema and hold
    their types; a missing key is left to the code that reads it."""
    _check_type(where, value, "an object")
    unknown = sorted(set(value) - set(schema))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
    for key, item in value.items():
        _check_type(f"{where}.{key}", item, schema[key])
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as handle:
        raw = _check_object("config", json.load(handle), _CONFIG_SCHEMA)
    family_raw = dict(_check_object("config.family", raw["family"], _FAMILY_SCHEMA))
    if family_raw.get("probs") is not None:
        for index, prob in enumerate(family_raw["probs"]):
            _check_type(f"config.family.probs[{index}]", prob, "a number")
        family_raw["probs"] = tuple(family_raw["probs"])
    params = _check_object("config.params", raw.get("params") or {}, _PARAMS_SCHEMA)
    if params.get("overrides") is not None:
        _check_object("config.params.overrides", params["overrides"],
                      _OVERRIDES_SCHEMA)
    config = ExperimentConfig(
        tester=raw["tester"],
        family=DistributionFamilySpec(**family_raw),
        trials=args.trials if args.trials is not None else raw["trials"],
        seed=args.seed if args.seed is not None else raw["seed"],
        tester_params=params)
    records, summary = run_experiment(config)
    if args.out:
        if args.format == "csv":
            write_records_csv(records, args.out)
        else:
            write_records_jsonl(records, args.out)
    print(json.dumps(_jsonable(summary)))
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
    sim.add_argument("--out", default=None, help="per-trial record output path")
    sim.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
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
