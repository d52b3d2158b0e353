"""Experiment harness: families, Wilson intervals, runs, record round-trips."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import binomtest

from unifwatch import (DistributionFamilySpec, ExperimentConfig, TrialRecord,
                       realize_family, run_experiment, summarize_records,
                       wilson_interval, write_records_jsonl)
from unifwatch.harness import run_trial

from reference import read_records_jsonl


def test_heavy_element_degenerates_to_uniform_at_zero_beta():
    dist = realize_family(DistributionFamilySpec(family="heavy_element", n=4,
                                                 beta=0.0))
    assert np.allclose(dist.probs, 0.25)


def test_heavy_element_formula():
    dist = realize_family(DistributionFamilySpec(family="heavy_element", n=1000,
                                                 beta=0.2))
    assert dist.probs[-1] == pytest.approx(0.2008, abs=1e-15)
    assert np.allclose(dist.probs[:-1], 0.8 / 1000)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_uniform_subset_realization():
    spec = DistributionFamilySpec(family="uniform_subset", n=10, fraction=0.5,
                                  seed=3)
    dist = realize_family(spec)
    assert np.sum(dist.probs == 0.2) == 5
    assert np.sum(dist.probs == 0.0) == 5
    # same spec realizes the same distribution; trial seeds never perturb it
    again = realize_family(spec)
    assert (dist.probs == again.probs).all()
    other = realize_family(dataclasses.replace(spec, seed=4))
    assert (dist.probs != other.probs).any()


def test_two_level_and_explicit_families():
    dist = realize_family(DistributionFamilySpec(
        family="two_level", n=10, mass_split=0.9, support_split=0.2))
    assert np.allclose(dist.probs[:2], 0.45)
    assert np.allclose(dist.probs[2:], 0.1 / 8)
    explicit = realize_family(DistributionFamilySpec(
        family="explicit", n=3, probs=(0.2, 0.3, 0.5)))
    assert np.allclose(explicit.probs, [0.2, 0.3, 0.5])


def test_explicit_family_needs_one_probability_per_symbol():
    """A 2-point source on a domain of 16 is refused, not tested as 16 symbols;
    a nested entry is not a number, so the spec itself refuses it."""
    for probs in [(0.5, 0.5), (1 / 32,) * 32]:
        with pytest.raises(ValueError, match="explicit family needs"):
            realize_family(DistributionFamilySpec(family="explicit", n=16,
                                                  probs=probs))
    with pytest.raises(ValueError, match=r"family\.probs\[0\] must be a number"):
        DistributionFamilySpec(family="explicit", n=16,
                               probs=((0.25, 0.25), (0.25, 0.25)))


def test_explicit_family_with_slack_negative_entry_runs_a_trial():
    """An entry in [-1e-12, 0) is stored as 0, so the source can be drawn."""
    spec = DistributionFamilySpec(family="explicit", n=3,
                                  probs=(0.5, 0.5 + 1e-13, -1e-13))
    assert realize_family(spec).probs[2] == 0.0
    config = ExperimentConfig(tester="uniformity", family=spec, trials=1, seed=3,
                              tester_params={"m": 1, "delta": 0.2})
    records, summary = run_experiment(config)
    assert len(records) == 1 and summary["trials"] == 1


def test_family_validation():
    """Bad families are refused, and so are family fields and tester params
    of the wrong JSON type: an m of 6.9 is not read as 6."""
    with pytest.raises(ValueError):
        DistributionFamilySpec(family="bogus", n=4)
    # a library caller's spec holds JSON types, as a simulate config must:
    # string probabilities are not converted, nor is a string beta passed on
    with pytest.raises(ValueError, match=r"family\.probs\[0\] must be a number"):
        DistributionFamilySpec(family="explicit", n=2, probs=("0.5", "0.5"))
    with pytest.raises(ValueError, match=r"family\.beta must be a number or null"):
        DistributionFamilySpec(family="heavy_element", n=4, beta="0.5")
    # a value JSON cannot print is named too, not a TypeError from the message
    with pytest.raises(ValueError, match=r"family\.n must be an integer, got \"np\.int64"):
        DistributionFamilySpec(family="uniform", n=np.int64(4))
    with pytest.raises(ValueError, match=r"tester_params\.m must be an integer"):
        ExperimentConfig(tester="uniformity",
                         family=DistributionFamilySpec(family="uniform", n=4),
                         trials=1, seed=0, tester_params={"m": 6.9, "delta": "0.1"})
    with pytest.raises(ValueError):
        realize_family(DistributionFamilySpec(family="heavy_element", n=4,
                                              beta=1.5))
    with pytest.raises(ValueError):
        realize_family(DistributionFamilySpec(family="uniform_subset", n=4,
                                              fraction=0.0))
    with pytest.raises(ValueError):
        realize_family(DistributionFamilySpec(family="two_level", n=4,
                                              mass_split=0.5))
    with pytest.raises(ValueError):
        realize_family(DistributionFamilySpec(family="explicit", n=4))


def test_wilson_interval_matches_scipy():
    for successes, trials in [(8, 10), (1, 30), (150, 200), (0, 7), (7, 7)]:
        lo, hi = wilson_interval(successes, trials)
        ref = binomtest(successes, trials).proportion_ci(
            confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ref.low, abs=1e-9)
        assert hi == pytest.approx(ref.high, abs=1e-9)
    assert wilson_interval(0, 5)[0] == 0.0
    assert wilson_interval(5, 5)[1] == 1.0
    assert wilson_interval(np.int64(2), np.int64(10)) == wilson_interval(2, 10)
    # a fractional or bool count is refused, not given an interval
    for successes, trials in [(1, 0), (6, 5), (2.5, 10), (True, 10), (2, 10.0)]:
        with pytest.raises(ValueError):
            wilson_interval(successes, trials)


def test_experiment_config_refuses_non_integer_trials_and_seed():
    """A fractional or bool trial count, or a bad seed, is refused when the
    config is built, not when a run first uses it."""
    family = DistributionFamilySpec(family="uniform", n=16)
    for field, value in [("trials", 2.5), ("trials", True), ("seed", -1), ("seed", 1.0)]:
        kwargs = {"tester": "uniformity", "family": family, "trials": 2, "seed": 1,
                  "tester_params": {"m": 2, "delta": 0.1}, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be "):
            ExperimentConfig(**kwargs)


def strip_wall_time(records):
    return [dataclasses.replace(r, wall_time=0.0) for r in records]


BASELINE_CONFIG = ExperimentConfig(
    tester="baseline",
    family=DistributionFamilySpec(family="uniform", n=100),
    trials=16, seed=99, tester_params={"m": 50})


def test_single_trial_rerun_is_bit_identical():
    config = dataclasses.replace(BASELINE_CONFIG, trials=1)
    first, _ = run_experiment(config)
    second, _ = run_experiment(config)
    assert len(first) == 1
    assert strip_wall_time(first) == strip_wall_time(second)


def test_tracker_experiment_false_alarm_rate():
    """Uniform stream, 200 tracker trials at delta = 0.2: reject rate <= 0.3."""
    config = ExperimentConfig(
        tester="tracker",
        family=DistributionFamilySpec(family="uniform", n=256),
        trials=200, seed=7,
        tester_params={"delta": 0.2, "max_stage": 3})
    records, summary = run_experiment(config)
    reject = summary["verdicts"].get("reject")
    rate = reject["rate"] if reject else 0.0
    assert 0.0 <= rate <= 0.3
    exhausted = [r for r in records if r.verdict == "budget_exhausted"]
    assert exhausted, "most trials should exhaust the stage budget"
    for record in exhausted[:5]:
        assert record.witness["kind"] == "TrackerOutcome"
        assert record.witness["stages_resolved"] == 4
        assert record.witness["final_m"] == 8
        assert record.samples_consumed == 3307
        assert record.branch == "collision"


def test_uniformity_experiment_on_heavy_family():
    config = ExperimentConfig(
        tester="uniformity",
        family=DistributionFamilySpec(family="heavy_element", n=64, beta=0.5),
        trials=20, seed=11,
        tester_params={"m": 6, "delta": 0.1, "overrides": {"r": 64}})
    records, summary = run_experiment(config)
    assert summary["verdicts"]["reject"]["count"] >= 17
    witness = next(r.witness for r in records if r.verdict == "reject")
    assert witness["kind"] == "IntervalWitness"
    assert {"a", "b", "mu_mass", "est_mass", "hellinger_sq"} <= witness.keys()


def test_tracker_experiment_requires_a_stop_rule():
    config = ExperimentConfig(
        tester="tracker",
        family=DistributionFamilySpec(family="uniform", n=16),
        trials=1, seed=0, tester_params={"delta": 0.2})
    with pytest.raises(ValueError, match="max_stage or max_samples"):
        run_trial(config, realize_family(config.family), 0)


def test_summarize_records_arithmetic():
    records = [
        TrialRecord(trial=0, seed=5, verdict="accept", branch="collision",
                    samples_consumed=10, witness=None, wall_time=0.25),
        TrialRecord(trial=1, seed=5, verdict="accept", branch="collision",
                    samples_consumed=20, witness=None, wall_time=0.25),
        TrialRecord(trial=2, seed=5, verdict="accept", branch="collision",
                    samples_consumed=30, witness=None, wall_time=0.25),
        TrialRecord(trial=3, seed=5, verdict="reject", branch="collision",
                    samples_consumed=40, witness={"kind": "CollisionWitness"},
                    wall_time=0.25),
    ]
    summary = summarize_records(BASELINE_CONFIG, records)
    accept = summary["verdicts"]["accept"]
    assert accept["count"] == 3
    assert accept["rate"] == 0.75
    assert accept["wilson_95"] == list(wilson_interval(3, 4))
    assert accept["mean_samples"] == 20.0
    assert summary["mean_samples"] == 25.0
    assert summary["total_wall_time"] == pytest.approx(1.0)
    assert summary["trials"] == 4


def test_jsonl_round_trip(tmp_path):
    records, _ = run_experiment(BASELINE_CONFIG)
    records = records + [TrialRecord(trial=16, seed=99, verdict="accept",
                                     branch=None, samples_consumed=0,
                                     witness=None, wall_time=0.12345678901234567)]
    path = tmp_path / "records.jsonl"
    write_records_jsonl(records, path)
    assert read_records_jsonl(path) == records
