"""Experiment runner: benchmark families, seeded trials, and result emission.

Every experiment is a pure function of (config, master seed): trial i draws
from the child generator at path (master, i), so trials are order-independent.
Trials run one after another and records are emitted in trial order.
Wall-time fields are informative only; exclude them when diffing runs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .distances import DiscreteDistribution
from .poisson import SeededRng, stream_from_distribution
from .tracker import tracker_new, tracker_run
from .uniformity_tester import (UniformityTestConfig, collision_count_baseline,
                                test_uniformity)

FAMILIES = ("uniform", "heavy_element", "uniform_subset", "two_level", "explicit")
TESTERS = ("uniformity", "tracker", "baseline")

WILSON_Z = 1.959963984540054  # two-sided 95% normal quantile

# The JSON types each key of the tester params and of a family may hold; a
# null leaves the key at its default.  The CLI checks the rest of a simulate
# config with the same helpers.
_JSON_TYPES = {"an integer": (int,), "a number": (int, float), "a string": (str,),
               "an array": (list, tuple), "an object": (dict,), "null": (type(None),)}
_PARAMS_SCHEMA = {"m": "an integer", "delta": "a number", "overrides": "an object or null",
                  **dict.fromkeys(("max_stage", "max_samples"), "an integer or null")}
_FAMILY_SCHEMA = {"family": "a string", "n": "an integer", "seed": "an integer",
                  "probs": "an array or null", **dict.fromkeys(
                      ("beta", "fraction", "mass_split", "support_split"), "a number or null")}
_OVERRIDES_SCHEMA = {"tau": "a number or null",
                     **dict.fromkeys(("r", "s", "x_max"), "an integer or null")}


def _check_type(where: str, value: Any, kinds: str) -> None:
    allowed = sum((_JSON_TYPES[kind] for kind in kinds.split(" or ")), ())
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"{where} must be {kinds}, "
                         f"got {json.dumps(value, default=repr)[:40]}")


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


def _check_tester_params(where: str, params: Any) -> dict:
    _check_object(where, params, _PARAMS_SCHEMA)
    if params.get("overrides") is not None:
        _check_object(f"{where}.overrides", params["overrides"], _OVERRIDES_SCHEMA)
    return params


def jsonable(value: Any) -> Any:
    """value with every dataclass as a dict tagged with its "kind" and every
    numpy scalar as a Python number, ready for json.dumps."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = dataclasses.asdict(value)
        # A dataclass may carry its own "kind" discriminant; keep it.
        payload.setdefault("kind", type(value).__name__)
        return jsonable(payload)
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


@dataclass(frozen=True)
class DistributionFamilySpec:
    """Named benchmark family, realized to an explicit probability vector.

    seed only matters for families with internal randomness (the subset
    choice in uniform_subset); it is independent of trial seeds so every
    trial of an experiment sees the same distribution.  Every field holds
    its JSON type only, and probs numbers only (stored as a tuple); a field
    of the wrong type raises ValueError naming it.
    """

    family: str
    n: int
    beta: float | None = None
    fraction: float | None = None
    mass_split: float | None = None
    support_split: float | None = None
    probs: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        _check_object("family", vars(self), _FAMILY_SCHEMA)
        if self.probs is not None:
            for index, prob in enumerate(self.probs):
                _check_type(f"family.probs[{index}]", prob, "a number")
            object.__setattr__(self, "probs", tuple(self.probs))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a tester, a family, a trial count, and a master seed.

    tester_params holds JSON-typed values only; a key of the wrong type, or
    one no tester reads, raises ValueError naming it.
    """

    tester: str
    family: DistributionFamilySpec
    trials: int
    seed: int
    tester_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tester not in TESTERS:
            raise ValueError(f"unknown tester {self.tester!r}; expected one of {TESTERS}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        _check_tester_params("tester_params", self.tester_params)


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome.  witness is already JSON-shaped (dict or None)."""

    trial: int
    seed: int
    verdict: str
    branch: str | None
    samples_consumed: int
    witness: dict | None
    wall_time: float


def realize_family(spec: DistributionFamilySpec) -> DiscreteDistribution:
    """Turn a family spec into its explicit probability vector."""
    n = spec.n
    if spec.family == "uniform":
        return DiscreteDistribution.uniform(n)
    if spec.family == "heavy_element":
        beta = spec.beta
        if beta is None or not 0.0 <= beta <= 1.0:
            raise ValueError(f"heavy_element needs beta in [0, 1], got {beta}")
        probs = np.full(n, (1.0 - beta) / n)
        probs[-1] = beta + (1.0 - beta) / n
        return DiscreteDistribution(probs)
    if spec.family == "uniform_subset":
        fraction = spec.fraction
        if fraction is None or not 0.0 < fraction <= 1.0:
            raise ValueError(f"uniform_subset needs fraction in (0, 1], got {fraction}")
        k = max(1, int(round(fraction * n)))
        chosen = SeededRng(spec.seed).generator.choice(n, size=k, replace=False)
        probs = np.zeros(n)
        probs[chosen] = 1.0 / k
        return DiscreteDistribution(probs)
    if spec.family == "two_level":
        mass_split = spec.mass_split
        support_split = spec.support_split
        if mass_split is None or not 0.0 < mass_split < 1.0:
            raise ValueError(f"two_level needs mass_split in (0, 1), got {mass_split}")
        if support_split is None or not 0.0 < support_split < 1.0:
            raise ValueError(
                f"two_level needs support_split in (0, 1), got {support_split}")
        head = min(max(int(round(support_split * n)), 1), n - 1)
        probs = np.empty(n)
        probs[:head] = mass_split / head
        probs[head:] = (1.0 - mass_split) / (n - head)
        return DiscreteDistribution(probs)
    if spec.probs is None:
        raise ValueError("explicit family needs probs")
    probs = np.asarray(spec.probs, dtype=np.float64)
    if probs.shape != (n,):
        raise ValueError(f"explicit family needs {n} probs, got shape {probs.shape}")
    return DiscreteDistribution(probs)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z
                    ) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _run_uniformity_trial(config: ExperimentConfig, dist: DiscreteDistribution,
                          rng: SeededRng) -> tuple[str, str | None, int, dict | None]:
    params = config.tester_params
    test_config = UniformityTestConfig(
        n=config.family.n, m=params["m"], delta=float(params["delta"]),
        overrides=params.get("overrides") or {})
    stream = stream_from_distribution(dist, rng.child(0))
    verdict, report = test_uniformity(test_config, stream, rng.child(1))
    return verdict.outcome, report.branch, report.samples_consumed, \
        jsonable(verdict.witness)


def _run_tracker_trial(config: ExperimentConfig, dist: DiscreteDistribution,
                       rng: SeededRng) -> tuple[str, str | None, int, dict | None]:
    params = config.tester_params
    max_stage = params.get("max_stage")
    max_samples = params.get("max_samples")
    if max_stage is None and max_samples is None:
        raise ValueError("tracker experiments need max_stage or max_samples")
    state = tracker_new(config.family.n, float(params["delta"]), rng.child(1),
                        overrides=params.get("overrides") or {},
                        max_stage=max_stage)
    stream = stream_from_distribution(dist, rng.child(0))
    status = tracker_run(state, stream, max_samples=max_samples)
    last = state.history[-1] if state.history else None
    witness = {
        "kind": "TrackerOutcome",
        "stages_resolved": len(state.history),
        "final_m": last.m if last else None,
    }
    return status, last.branch if last else None, state.cumulative_samples, witness


def _run_baseline_trial(config: ExperimentConfig, dist: DiscreteDistribution,
                        rng: SeededRng) -> tuple[str, str | None, int, dict | None]:
    params = config.tester_params
    stream = stream_from_distribution(dist, rng.child(0))
    verdict, report = collision_count_baseline(config.family.n, params["m"], stream)
    return verdict.outcome, report.branch, report.samples_consumed, \
        jsonable(verdict.witness)


_TRIAL_RUNNERS = {
    "uniformity": _run_uniformity_trial,
    "tracker": _run_tracker_trial,
    "baseline": _run_baseline_trial,
}


def run_trial(config: ExperimentConfig, dist: DiscreteDistribution,
              trial: int) -> TrialRecord:
    """Run one trial on its own derived generator tree."""
    rng = SeededRng(config.seed).child(trial)
    start = time.perf_counter()
    verdict, branch, samples, witness = _TRIAL_RUNNERS[config.tester](
        config, dist, rng)
    wall = time.perf_counter() - start
    return TrialRecord(trial=trial, seed=config.seed, verdict=verdict,
                       branch=branch, samples_consumed=samples,
                       witness=witness, wall_time=wall)


def summarize_records(config: ExperimentConfig,
                      records: list[TrialRecord]) -> dict:
    """Verdict rates with Wilson 95% intervals plus sample-consumption means."""
    trials = len(records)
    verdicts: dict[str, dict] = {}
    for outcome in sorted({r.verdict for r in records}):
        matching = [r for r in records if r.verdict == outcome]
        count = len(matching)
        lo, hi = wilson_interval(count, trials)
        verdicts[outcome] = {
            "count": count,
            "rate": count / trials,
            "wilson_95": [lo, hi],
            "mean_samples": float(np.mean([r.samples_consumed for r in matching])),
        }
    return {
        "tester": config.tester,
        "family": dataclasses.asdict(config.family),
        "trials": trials,
        "seed": config.seed,
        "verdicts": verdicts,
        "mean_samples": float(np.mean([r.samples_consumed for r in records])),
        "total_wall_time": float(sum(r.wall_time for r in records)),
    }


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialRecord], dict]:
    """Run all trials and summarize.  Output order is by trial index."""
    dist = realize_family(config.family)
    records = [run_trial(config, dist, i) for i in range(config.trials)]
    return records, summarize_records(config, records)


def write_records_jsonl(records: list[TrialRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(dataclasses.asdict(record)) + "\n")
