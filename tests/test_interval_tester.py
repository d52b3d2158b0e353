"""Interval tester: parameter derivation, scan semantics, witness identity."""

import dataclasses
import math

import numpy as np
import pytest

from unifwatch import (ACCEPT, REJECT, IntervalTesterParams, IntervalWitness,
                       PoissonMixture, SeededRng, derive_interval_params,
                       hellinger_sq_bernoulli, poisson_interval_mass,
                       run_interval_tester)

# Operating point for mu=10 against the {5, 15} mixture at its exact
# squared-Hellinger separation, failure budget 0.1.  Values frozen from
# the closed-form derivation (verified against a 60-digit evaluation).
EPS_STAR = 0.29409112421617625657
PINNED_X_MAX = 66
PINNED_TAU = 0.001760495088736882
PINNED_M = 58127


def test_derive_formula_instantiation():
    params = derive_interval_params(mu=5.0, eps=2.0, delta=0.1)
    assert params.tau == pytest.approx(2.0 / (64.0 * math.log(2.0)), rel=1e-12)
    assert params.x_max == math.ceil(10.0 + 6.0 * math.log(100.0 * math.log(2.0))) + 1
    expected_m = math.ceil(8.0 * math.log(8.0 * (params.x_max + 1) ** 2 / 0.1)
                           / params.tau)
    assert params.m == expected_m


def test_derive_pinned_operating_point():
    params = derive_interval_params(mu=10.0, eps=EPS_STAR, delta=0.1)
    assert params.x_max == PINNED_X_MAX
    assert params.tau == pytest.approx(PINNED_TAU, rel=1e-12)
    assert params.m == PINNED_M


def test_derive_monotone_in_difficulty():
    base = derive_interval_params(mu=4.0, eps=0.3, delta=0.05)
    harder_eps = derive_interval_params(mu=4.0, eps=0.1, delta=0.05)
    harder_delta = derive_interval_params(mu=4.0, eps=0.3, delta=0.001)
    taller = derive_interval_params(mu=12.0, eps=0.3, delta=0.05)
    assert harder_eps.m > base.m and harder_eps.tau < base.tau
    assert harder_delta.m > base.m
    assert taller.x_max > base.x_max


def test_derive_rejects_bad_arguments():
    for kwargs in [dict(mu=-1.0, eps=0.3, delta=0.1),
                   dict(mu=4.0, eps=0.0, delta=0.1),
                   dict(mu=4.0, eps=2.5, delta=0.1),
                   dict(mu=4.0, eps=0.3, delta=0.0),
                   dict(mu=4.0, eps=0.3, delta=1.0)]:
        with pytest.raises(ValueError):
            derive_interval_params(**kwargs)


def test_params_validation():
    with pytest.raises(ValueError):
        IntervalTesterParams(mu=1.0, tau=0.0, x_max=5, m=10)
    with pytest.raises(ValueError):
        IntervalTesterParams(mu=1.0, tau=0.1, x_max=-1, m=10)
    with pytest.raises(ValueError):
        IntervalTesterParams(mu=math.inf, tau=0.1, x_max=5, m=10)


def test_input_validation():
    params = IntervalTesterParams(mu=1.0, tau=0.1, x_max=5, m=10)
    with pytest.raises(ValueError):
        run_interval_tester(params, np.zeros(9, dtype=np.int64))
    with pytest.raises(ValueError):
        run_interval_tester(params, np.zeros((2, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        run_interval_tester(params, np.full(10, -1, dtype=np.int64))
    with pytest.raises(ValueError):
        run_interval_tester(params, np.zeros(10, dtype=np.float64))


def test_all_zero_sample_rejects_at_origin():
    params = IntervalTesterParams(mu=10.0, tau=0.01, x_max=30, m=200)
    verdict = run_interval_tester(params, np.zeros(200, dtype=np.int64))
    assert verdict.outcome == REJECT
    assert isinstance(verdict.witness, IntervalWitness)
    # all the empirical mass sits at 0, so the first flagged interval
    # starts there
    assert verdict.witness.a == 0
    assert verdict.witness.est_mass >= 1.0 - 1e-12 or verdict.witness.a == 0


def test_counts_above_ceiling_are_invisible():
    params = IntervalTesterParams(mu=2.0, tau=0.05, x_max=5, m=40)
    rng = SeededRng(21).generator
    base = rng.poisson(2.0, size=40).clip(max=5).astype(np.int64)
    spiked_low = base.copy()
    spiked_low[:7] = 6
    spiked_high = base.copy()
    spiked_high[:7] = 10_000
    v1 = run_interval_tester(params, spiked_low)
    v2 = run_interval_tester(params, spiked_high)
    assert v1 == v2


def test_verdict_is_deterministic():
    params = dataclasses.replace(derive_interval_params(mu=3.0, eps=0.4, delta=0.1),
                                 m=500)
    samples = SeededRng(22).generator.poisson(3.0, size=500)
    assert run_interval_tester(params, samples) == run_interval_tester(params, samples)


def test_interval_count_closed_form():
    params = IntervalTesterParams(mu=1.0, tau=1.9, x_max=500, m=10)
    verdict = run_interval_tester(params, np.ones(10, dtype=np.int64))
    assert verdict.intervals_evaluated == 501 * 502 // 2 == 125_751


def naive_scan(params, samples):
    """Literal triple loop over (a, b, sample) for cross-checking.

    Returns the outcome and, on reject, (a, b, mu_mass, est_mass, gap) of
    the first interval whose gap reaches tau.
    """
    kept = [int(x) for x in samples if x <= params.x_max]
    for a in range(params.x_max + 1):
        for b in range(a, params.x_max + 1):
            mu_mass = poisson_interval_mass(params.mu, a, b).mass
            est = min(sum(1 for x in kept if a <= x <= b) / params.m, 1.0)
            gap = hellinger_sq_bernoulli(mu_mass, est)
            if gap >= params.tau:
                return REJECT, (a, b, mu_mass, est, gap)
    return ACCEPT, None


def test_matches_naive_scan_on_random_instances():
    rng = SeededRng(23)
    gen = rng.generator
    instances = []
    for _ in range(60):
        mu = float(gen.uniform(0.2, 8.0))
        x_max = int(gen.integers(4, 14))
        m = int(gen.integers(30, 300))
        tau = float(gen.uniform(0.002, 0.08))
        params = IntervalTesterParams(mu=mu, tau=tau, x_max=x_max, m=m)
        if gen.random() < 0.5:
            samples = gen.poisson(mu, size=m)
        else:
            rates = gen.uniform(0.0, 12.0, size=2)
            samples = gen.poisson(gen.choice(rates, size=m))
        instances.append((params, samples))
    for _ in range(10):
        params = IntervalTesterParams(mu=float(gen.uniform(0.0, 8.0)),
                                      tau=float(gen.uniform(0.002, 1.5)),
                                      x_max=int(gen.integers(0, 14)),
                                      m=int(gen.integers(1, 300)))
        # every sample above the ceiling, then every sample at 0
        above = params.x_max + 1 + gen.poisson(params.mu, size=params.m)
        instances.append((params, above))
        instances.append((params, np.zeros(params.m, dtype=np.int64)))
    rejects = 0
    for trial, (params, samples) in enumerate(instances):
        fast = run_interval_tester(params, samples)
        slow_outcome, slow = naive_scan(params, samples)
        assert fast.outcome == slow_outcome, f"trial {trial}"
        if fast.outcome == REJECT:
            rejects += 1
            a, b, mu_mass, est, gap = slow
            w = fast.witness
            assert (w.a, w.b) == (a, b), f"trial {trial}"
            assert w.mu_mass == pytest.approx(mu_mass, abs=1e-12), f"trial {trial}"
            assert w.est_mass == est, f"trial {trial}"
            assert w.hellinger_sq == pytest.approx(gap, abs=1e-12), f"trial {trial}"
    assert rejects >= 10  # the mix of instances must exercise both outcomes

    # The one input where the two forms part: at tau exactly 2 the bounds
    # are sentinels, so an interval of mass exactly 1 (here [0, 0] under
    # Poi(0)) with no draws, whose gap is exactly 2, does not fire.
    params = IntervalTesterParams(mu=0.0, tau=2.0, x_max=3, m=5)
    samples = np.ones(5, dtype=np.int64)
    assert naive_scan(params, samples) == (REJECT, (0, 0, 1.0, 0.0, 2.0))
    assert run_interval_tester(params, samples).outcome == ACCEPT


def test_witness_masses_are_consistent():
    params = IntervalTesterParams(mu=6.0, tau=0.01, x_max=25, m=300)
    samples = np.zeros(300, dtype=np.int64)  # atom at 0, far from Poi(6)
    verdict = run_interval_tester(params, samples)
    w = verdict.witness
    assert verdict.outcome == REJECT
    assert w.mu_mass == pytest.approx(poisson_interval_mass(6.0, w.a, w.b).mass,
                                      abs=1e-12)
    count = int(((samples >= w.a) & (samples <= w.b)).sum())
    assert w.est_mass == pytest.approx(count / params.m, abs=1e-15)
    assert w.hellinger_sq == pytest.approx(
        hellinger_sq_bernoulli(w.mu_mass, w.est_mass), abs=1e-15)
    assert w.hellinger_sq >= params.tau


def test_distinguishes_poisson_from_separated_mixture():
    """At the pinned operating point: Poi(10) in, accept; {5, 15} mix in, reject."""
    params = derive_interval_params(mu=10.0, eps=EPS_STAR, delta=0.1)
    mix = PoissonMixture([5.0, 15.0])
    for seed in range(5):
        rng = SeededRng(500 + seed)
        null = rng.child(0).generator.poisson(10.0, size=params.m)
        assert run_interval_tester(params, null).outcome == ACCEPT, f"seed {seed}"
        gen = rng.child(1).generator
        rates = gen.choice(mix.rates, size=params.m)
        alt = gen.poisson(rates)
        verdict = run_interval_tester(params, alt)
        assert verdict.outcome == REJECT, f"seed {seed}"
        assert verdict.witness.hellinger_sq >= params.tau
