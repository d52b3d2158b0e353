"""End-to-end uniformity testing: branch routing, both branches, baseline."""

import math

import numpy as np
import pytest

from unifwatch import (ACCEPT, BUDGET_EXCEEDED, REJECT, BRANCH_COLLISION,
                       BRANCH_POISSONIZED, DiscreteDistribution, SeededRng,
                       StreamExhausted, SymbolStream, UniformityTestConfig,
                       collision_count_baseline, collision_group_count,
                       collision_group_test, hellinger_sq, poissonized_sample_cap,
                       stream_from_distribution)
from unifwatch import test_uniformity as run_uniformity
import unifwatch.uniformity_tester as ut


def heavy_element(n: int, beta: float) -> DiscreteDistribution:
    probs = np.full(n, (1.0 - beta) / n)
    probs[-1] += beta
    return DiscreteDistribution(probs)


def subset_uniform(n: int, k: int, seed: int) -> DiscreteDistribution:
    chosen = SeededRng(seed).generator.choice(n, size=k, replace=False)
    probs = np.zeros(n)
    probs[chosen] = 1.0 / k
    return DiscreteDistribution(probs)


def test_collision_group_count_table():
    assert collision_group_count(0.1) == 145
    assert collision_group_count(0.05) == 179
    assert collision_group_count(0.025) == 211
    for delta in (0.3, 0.07, 0.004):
        g = collision_group_count(delta)
        assert g % 2 == 1
        assert g >= 48 * math.log(2 / delta) > g - 2
    with pytest.raises(ValueError):
        collision_group_count(0.0)


def test_branch_predicate_exact():
    # n = 10000: sqrt(n)/2 = 50, so m = 40 routes to collisions
    stream = stream_from_distribution(DiscreteDistribution.uniform(10_000),
                                      SeededRng(40))
    _, report = run_uniformity(UniformityTestConfig(n=10_000, m=40, delta=0.1),
                                stream, SeededRng(41))
    assert report.branch == BRANCH_COLLISION

    # n = 1600: m = 20 is the last collision budget, m = 21 crosses over
    stream = stream_from_distribution(DiscreteDistribution.uniform(1600),
                                      SeededRng(42))
    _, report = run_uniformity(UniformityTestConfig(n=1600, m=20, delta=0.1),
                                stream, SeededRng(43))
    assert report.branch == BRANCH_COLLISION
    config = UniformityTestConfig(n=1600, m=21, delta=0.1, overrides={"r": 1})
    stream = stream_from_distribution(DiscreteDistribution.uniform(1600),
                                      SeededRng(44))
    verdict, report = run_uniformity(config, stream, SeededRng(45))
    assert report.branch == config.branch == BRANCH_POISSONIZED
    assert report.samples_requested == config.samples_reserved
    assert report.samples_consumed <= report.samples_requested


def test_collision_branch_uniform_accepts():
    """Uniform n=10000 at m=40: accept rate >= 0.9, group collision rate <= 0.16."""
    n, m, delta, trials = 10_000, 40, 0.1, 300
    uniform = DiscreteDistribution.uniform(n)
    accepts = 0
    collided = groups = 0
    for t in range(trials):
        stream = stream_from_distribution(uniform, SeededRng(6000 + t))
        verdict, report = collision_group_test(n, m, delta, stream)
        accepts += verdict.outcome == ACCEPT
        collided += verdict.witness.collided
        groups += verdict.witness.groups
        assert report.samples_consumed == report.samples_requested == 145 * m
    assert accepts / trials >= 0.9
    assert collided / groups <= m * m / n  # union bound 0.16, well under 1/4


def test_collision_branch_point_mass_rejects():
    stream = SymbolStream(lambda k: np.ones(k, dtype=np.int64))
    verdict, _ = collision_group_test(10_000, 2, 0.1, stream)
    assert verdict.outcome == REJECT
    assert verdict.witness.collided == verdict.witness.groups == 145


def test_collision_branch_subset_uniform_rejects():
    """Uniform on a random 1000-subset of 10000 at m = 3*ceil(sqrt(1000))."""
    n, k = 10_000, 1000
    m = 3 * math.ceil(math.sqrt(k))
    dist = subset_uniform(n, k, seed=51)

    # birthday oracle first: a single group of m draws from the k-point
    # support collides with probability well above 2/3
    gen = SeededRng(52).generator
    hits = 0
    for _ in range(2000):
        draws = gen.integers(0, k, size=m)
        hits += np.unique(draws).size < m
    assert hits / 2000 >= 2 / 3

    rejects = 0
    for t in range(300):
        stream = stream_from_distribution(dist, SeededRng(8000 + t))
        verdict, _ = collision_group_test(n, m, 0.1, stream)
        rejects += verdict.outcome == REJECT
    assert rejects / 300 >= 0.9


def test_poissonized_branch_uniform_accepts():
    """Uniform n=64 at m=32 (r lowered to 32 for runtime): accept rate >= 0.85."""
    config = UniformityTestConfig(n=64, m=32, delta=0.1, overrides={"r": 32})
    cap, params, m_prime = poissonized_sample_cap(64, 32, 0.1, {"r": 32})
    assert m_prime == 64
    uniform = DiscreteDistribution.uniform(64)
    accepts = 0
    for t in range(200):
        stream = stream_from_distribution(uniform, SeededRng(10_000 + t))
        verdict, report = run_uniformity(config, stream, SeededRng(11_000 + t))
        accepts += verdict.outcome == ACCEPT
        assert report.branch == BRANCH_POISSONIZED
        assert report.samples_requested == cap
        assert report.samples_consumed <= cap
    assert accepts / 200 >= 0.85


def test_poissonized_branch_heavy_element_rejects():
    """heavy(64, 0.5) with the budget sized from the Hellinger proxy.

    ceil(1/H^2(p, uniform)) = 3 estimates the optimal budget up to constants;
    doubling it absorbs the constant and lands in the Poissonized branch
    (m = 6 > sqrt(64)/2).  r lowered to 64 for runtime.
    """
    n = 64
    dist = heavy_element(n, 0.5)
    proxy = math.ceil(1.0 / hellinger_sq(dist, DiscreteDistribution.uniform(n)))
    assert proxy == 3
    m = 2 * proxy
    config = UniformityTestConfig(n=n, m=m, delta=0.1, overrides={"r": 64})
    rejects = 0
    for t in range(200):
        stream = stream_from_distribution(dist, SeededRng(12_000 + t))
        verdict, report = run_uniformity(config, stream, SeededRng(13_000 + t))
        rejects += verdict.outcome == REJECT
        assert report.branch == BRANCH_POISSONIZED
    assert rejects / 200 >= 0.85


def test_budget_exceeded_is_distinct_and_consumes_nothing(monkeypatch):
    config = UniformityTestConfig(n=64, m=32, delta=0.1, overrides={"r": 32})
    cap, _, _ = poissonized_sample_cap(64, 32, 0.1, {"r": 32})
    monkeypatch.setattr(ut, "_draw_total", lambda rng, mean: cap + 1)
    stream = stream_from_distribution(DiscreteDistribution.uniform(64),
                                      SeededRng(60))
    verdict, report = run_uniformity(config, stream, SeededRng(61))
    assert verdict.outcome == BUDGET_EXCEEDED
    assert report.samples_requested == cap
    assert report.samples_consumed == 0
    assert stream.consumed == 0


def test_collision_branch_stream_exhaustion():
    stream = SymbolStream(np.array([1, 2, 3, 4, 5]))
    with pytest.raises(StreamExhausted):
        collision_group_test(100, 2, 0.1, stream)


def test_config_validation():
    # an invalid override raises when the Poissonized plan is built
    for kwargs in [dict(n=1, m=5, delta=0.1), dict(n=10, m=0, delta=0.1),
                   dict(n=10, m=5, delta=1.0),
                   dict(n=64, m=32, delta=0.1, overrides={"r": 0})]:
        with pytest.raises(ValueError):
            UniformityTestConfig(**kwargs)


def test_baseline_uniform_accepts():
    n, m, trials = 1000, 200, 500
    uniform = DiscreteDistribution.uniform(n)
    accepts = 0
    for t in range(trials):
        stream = stream_from_distribution(uniform, SeededRng(14_000 + t))
        verdict, report = collision_count_baseline(n, m, stream)
        accepts += verdict.outcome == ACCEPT
        assert report.samples_consumed == m
    assert accepts / trials >= 0.75


def test_baseline_point_mass_rejects():
    stream = SymbolStream(lambda k: np.ones(k, dtype=np.int64))
    verdict, _ = collision_count_baseline(1000, 10, stream)
    assert verdict.outcome == REJECT
    assert verdict.witness.collided == 45  # all C(10, 2) pairs collide


def test_baseline_heavy_element_rejects():
    n, beta = 1000, 0.2
    m = math.ceil(8.0 * math.sqrt(n) / beta ** 2)
    assert m == 6325
    dist = heavy_element(n, beta)
    rejects = 0
    for t in range(500):
        stream = stream_from_distribution(dist, SeededRng(15_000 + t))
        verdict, _ = collision_count_baseline(n, m, stream)
        rejects += verdict.outcome == REJECT
    assert rejects / 500 >= 0.75


def test_baseline_needs_pairs():
    stream = SymbolStream(lambda k: np.ones(k, dtype=np.int64))
    with pytest.raises(ValueError):
        collision_count_baseline(1000, 1, stream)


def test_collision_count_baseline_needs_no_n_entry_counts():
    """Pairs come from the distinct symbols read, so a domain of 10**12
    costs O(m) memory, not an n-entry count vector."""
    n = 10**12
    accept, _ = collision_count_baseline(n, 2, SymbolStream([1, 2]))
    reject, report = collision_count_baseline(n, 2, SymbolStream([5, 5]))
    assert (accept.outcome, reject.outcome) == (ACCEPT, REJECT)
    assert (reject.witness.collided, report.samples_consumed) == (1, 2)
