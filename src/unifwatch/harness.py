"""Experiment runner: benchmark families, seeded trials, and result emission.

Every experiment is a pure function of (config, master seed): trial i draws
from the child generator at path (master, i), so trials are order-independent.
Trials run one after another and records are emitted in trial order.
Wall-time fields are informative only; exclude them when diffing runs.
"""

from __future__ import annotations

import csv
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

RECORD_COLUMNS = ("trial", "seed", "verdict", "branch", "samples_consumed",
                  "witness", "wall_time")


@dataclass(frozen=True)
class DistributionFamilySpec:
    """Named benchmark family, realized to an explicit probability vector.

    seed only matters for families with internal randomness (the subset
    choice in uniform_subset); it is independent of trial seeds so every
    trial of an experiment sees the same distribution.
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
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a tester, a family, a trial count, and a master seed."""

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


def _witness_payload(witness: Any) -> dict | None:
    if witness is None:
        return None
    payload = dataclasses.asdict(witness)
    payload["kind"] = type(witness).__name__
    return payload


def _run_uniformity_trial(config: ExperimentConfig, dist: DiscreteDistribution,
                          rng: SeededRng) -> tuple[str, str | None, int, dict | None]:
    params = config.tester_params
    test_config = UniformityTestConfig(
        n=config.family.n, m=int(params["m"]), delta=float(params["delta"]),
        overrides=params.get("overrides") or {})
    stream = stream_from_distribution(dist, rng.child(0))
    verdict, report = test_uniformity(test_config, stream, rng.child(1))
    return verdict.outcome, report.branch, report.samples_consumed, \
        _witness_payload(verdict.witness)


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
    verdict, report = collision_count_baseline(config.family.n,
                                               int(params["m"]), stream)
    return verdict.outcome, report.branch, report.samples_consumed, \
        _witness_payload(verdict.witness)


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


def record_to_dict(record: TrialRecord) -> dict:
    return dataclasses.asdict(record)


def record_from_dict(payload: dict) -> TrialRecord:
    return TrialRecord(trial=int(payload["trial"]), seed=int(payload["seed"]),
                       verdict=str(payload["verdict"]),
                       branch=payload["branch"],
                       samples_consumed=int(payload["samples_consumed"]),
                       witness=payload["witness"],
                       wall_time=float(payload["wall_time"]))


def write_records_jsonl(records: list[TrialRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")


def read_records_jsonl(path: str | Path) -> list[TrialRecord]:
    with open(path, encoding="utf-8") as handle:
        return [record_from_dict(json.loads(line))
                for line in handle if line.strip()]


def write_records_csv(records: list[TrialRecord], path: str | Path) -> None:
    # branch None <-> empty cell; witness stored as embedded JSON ("" for None)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(RECORD_COLUMNS)
        for record in records:
            writer.writerow([
                record.trial, record.seed, record.verdict,
                record.branch if record.branch is not None else "",
                record.samples_consumed,
                json.dumps(record.witness) if record.witness is not None else "",
                repr(record.wall_time),
            ])


def read_records_csv(path: str | Path) -> list[TrialRecord]:
    records = []
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            records.append(TrialRecord(
                trial=int(row["trial"]), seed=int(row["seed"]),
                verdict=row["verdict"],
                branch=row["branch"] or None,
                samples_consumed=int(row["samples_consumed"]),
                witness=json.loads(row["witness"]) if row["witness"] else None,
                wall_time=float(row["wall_time"])))
    return records


def write_summary(summary: dict, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
