"""Sampling, splitting, Poissonization, and stream plumbing.

Monte Carlo checks run at fixed seeds, so pass/fail is deterministic;
tolerances are sized at 3-5 sigma of the corresponding estimator.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from unifwatch import (DiscreteDistribution, SeededRng, StreamExhausted,
                       SymbolStream, depoissonize, poissonize,
                       read_frequency_vector, read_symbols, sample_poisson,
                       stream_from_distribution)
from unifwatch.poisson import (child_keys, child_permutations, poisson_split,
                               validate_frequency_vector)

from reference import sample_perm_poisson


def test_seeded_rng_reproducible():
    a = SeededRng(99).generator.integers(0, 1 << 30, size=64)
    b = SeededRng(99).generator.integers(0, 1 << 30, size=64)
    assert (a == b).all()
    c = SeededRng(100).generator.integers(0, 1 << 30, size=64)
    assert (a != c).any()


def test_seeded_rng_children_are_independent_streams():
    root = SeededRng(7)
    x = root.child(0).generator.random(32)
    y = root.child(1).generator.random(32)
    again = SeededRng(7).child(0).generator.random(32)
    assert (x == again).all()
    assert (x != y).any()
    # nested paths stay distinct from flat ones
    nested = root.child(0).child(1).generator.random(32)
    assert (nested != y).any()


_WORD = 2**32
_INDEX = st.one_of(st.integers(0, _WORD - 1), st.integers(_WORD, 2**70))


@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(st.just(0), st.integers(1, _WORD - 1),
                      st.integers(_WORD, 2**64 - 1), st.integers(2**64, 2**100)),
       path=st.one_of(st.just(()), st.lists(_INDEX, min_size=1, max_size=4)),
       first=st.one_of(st.integers(0, 1000), st.integers(_WORD - 60, _WORD + 10),
                       st.integers(2**64 - 60, 2**64 + 10)),
       count=st.integers(0, 50), n=st.integers(1, 40))
def test_child_keys_and_permutations_match_child(seed, path, first, count, n):
    """The batch helpers give each child's Philox key and permutation exactly.

    first is also drawn just below 2^32 and 2^64, so a batch can cross the
    index where the child's spawn-key word count grows.
    """
    rng = SeededRng(seed, tuple(path))
    keys = child_keys(rng, first, count)
    perms = list(child_permutations(rng, first, count, n))
    assert keys.shape == (count, 2) and keys.dtype == np.uint64
    assert len(perms) == count
    for j in range(count):
        child = rng.child(first + j)
        assert np.array_equal(keys[j], child.generator.bit_generator.state["state"]["key"])
        assert np.array_equal(perms[j], child.generator.permutation(n))


def test_child_batches_reject_negative_indexes_like_child():
    rng = SeededRng(5, (1,))
    with pytest.raises(ValueError):
        rng.child(-1)
    with pytest.raises(ValueError):
        child_keys(rng, -1, 3)
    with pytest.raises(ValueError):
        child_permutations(rng, -1, 3, 4)  # at the call, not at the first draw
    with pytest.raises(ValueError):
        child_keys(rng, 0, -1)


def test_sample_poisson_zero_rate():
    rng = SeededRng(1)
    assert all(sample_poisson(0.0, rng) == 0 for _ in range(50))


def test_sample_poisson_moments():
    gen = SeededRng(2).generator
    draws = gen.poisson(10.0, size=100_000)
    assert abs(draws.mean() - 10.0) < 0.05
    # conservative upper tail: Pr[z >= 2*rate + 6*ln(1/0.01)] <= 0.01
    cutoff = 2 * 10.0 + 6 * math.log(1 / 0.01)
    assert (draws >= cutoff).mean() <= 0.01


def test_sample_poisson_rejects_bad_rate():
    rng = SeededRng(3)
    for rate in [math.nan, -1.0, math.inf]:
        with pytest.raises(ValueError):
            sample_poisson(rate, rng)


def test_poisson_split_degenerate():
    rng = SeededRng(4)
    assert (poisson_split(0, 7, rng) == 0).all()
    assert poisson_split(13, 1, rng).tolist() == [13]


def test_poisson_split_conserves_total():
    rng = SeededRng(5)
    gen = rng.generator
    for _ in range(200):
        y = int(gen.integers(0, 5000))
        s = int(gen.integers(1, 40))
        parts = poisson_split(y, s, rng)
        assert parts.sum() == y
        assert parts.min() >= 0
        assert parts.size == s


@settings(max_examples=200, deadline=None)
@given(y=st.integers(0, 10**6), s=st.integers(1, 500),
       seed=st.integers(0, 2**32 - 1))
def test_poisson_split_parts_sum_to_the_count(y, s, seed):
    parts = poisson_split(y, s, SeededRng(seed))
    assert parts.shape == (s,)
    assert parts.min() >= 0
    assert int(parts.sum()) == y
    if s == 1:
        assert parts.tolist() == [y]


def test_poisson_split_marginals_poisson():
    """Splitting Poi(s*lam) into s parts yields i.i.d. Poi(lam) coordinates."""
    lam, s, trials = 2.0, 5, 100_000
    rng = SeededRng(6)
    totals = rng.child(0).generator.poisson(s * lam, size=trials)
    split_rng = rng.child(1)
    parts = np.empty((trials, s), dtype=np.int64)
    for i in range(trials):
        parts[i] = poisson_split(int(totals[i]), s, split_rng)
    means = parts.mean(axis=0)
    assert np.abs(means - lam).max() < 0.05, f"coordinate means {means}"
    cov = np.cov(parts.T)
    off_diag = cov[~np.eye(s, dtype=bool)]
    assert np.abs(off_diag).max() < 0.05, f"cross-coordinate cov {off_diag}"


def test_poissonize_basics():
    assert poissonize([], 4).tolist() == [0, 0, 0, 0]
    assert poissonize([1, 1, 3], 3).tolist() == [2, 0, 1]
    with pytest.raises(ValueError):
        poissonize([0], 3)
    with pytest.raises(ValueError):
        poissonize([4], 3)


def test_poissonize_of_poisson_sample_is_product_poisson():
    """Poi(M) uniform samples poissonize to n independent Poi(M/n) counts."""
    n, big_m, trials = 3, 6.0, 10_000
    rng = SeededRng(8)
    gen = rng.generator
    freq = np.empty((trials, n), dtype=np.int64)
    for t in range(trials):
        m = gen.poisson(big_m)
        freq[t] = poissonize(gen.integers(1, n + 1, size=m), n)
    lam = big_m / n
    # pooled marginal against the Poi(2) pmf
    pooled = freq.ravel()
    top = 9
    observed = np.bincount(np.minimum(pooled, top), minlength=top + 1)
    pmf = np.array([stats.poisson.pmf(x, lam) for x in range(top)])
    expected = np.append(pmf, 1.0 - pmf.sum()) * pooled.size
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 1e-4, f"marginal chi-square p={p_value}"
    # independence across coordinates
    cov = np.cov(freq.T)
    off = cov[~np.eye(n, dtype=bool)]
    sigma = lam / math.sqrt(trials)
    assert np.abs(off).max() < 4 * sigma, f"coordinate covariance {off}"


def test_depoissonize_basics():
    rng = SeededRng(9)
    assert depoissonize(np.array([0, 0, 0]), rng).size == 0
    out = depoissonize(np.array([2, 0, 1]), rng)
    assert sorted(out.tolist()) == [1, 1, 3]


def test_poissonize_depoissonize_round_trip():
    rng = SeededRng(10)
    gen = rng.generator
    for _ in range(1000):
        n = int(gen.integers(1, 12))
        freq = gen.integers(0, 9, size=n).astype(np.int64)
        assert (poissonize(depoissonize(freq, rng), n) == freq).all()


@settings(max_examples=200, deadline=None)
@given(freq=st.lists(st.integers(0, 50), min_size=1, max_size=40),
       seed=st.integers(0, 2**32 - 1))
def test_poissonize_inverts_depoissonize(freq, seed):
    freq = np.array(freq, dtype=np.int64)
    symbols = depoissonize(freq, SeededRng(seed))
    assert symbols.size == freq.sum()
    assert (poissonize(symbols, freq.size) == freq).all()


def test_depoissonize_order_is_shuffled():
    rng = SeededRng(11)
    freq = np.array([50, 50])
    out = depoissonize(freq, rng)
    # a sorted output would mean no shuffle; runs of the first symbol break up
    assert (np.diff(out) != 0).sum() > 10


def test_sample_perm_poisson_exchangeable_when_equal():
    rng = SeededRng(12)
    counts = np.array([sample_perm_poisson(np.full(4, 3.0), rng.child(i))
                       for i in range(4000)])
    means = counts.mean(axis=0)
    assert np.abs(means - 3.0).max() < 0.15


def test_sample_perm_poisson_heavy_coordinate_uniformly_placed():
    rng = SeededRng(13)
    rates = np.array([0.0, 50.0])
    hits = np.zeros(2)
    for i in range(2000):
        counts = sample_perm_poisson(rates, rng.child(i))
        hits[int(np.argmax(counts))] += 1
    assert abs(hits[0] - 1000) < 140, f"heavy placement counts {hits}"


def test_sample_perm_poisson_two_rate_mixture_law():
    """(1, 9) counts follow the half-half permuted product exactly."""
    rng = SeededRng(14)
    trials = 100_000
    top = 20
    joint = np.zeros((top + 1, top + 1))
    for i in range(trials):
        x, y = sample_perm_poisson(np.array([1.0, 9.0]), rng.child(i))
        joint[min(x, top), min(y, top)] += 1
    p1 = stats.poisson.pmf(np.arange(top + 1), 1.0)
    p9 = stats.poisson.pmf(np.arange(top + 1), 9.0)
    p1[-1] = 1.0 - p1[:-1].sum()
    p9[-1] = 1.0 - p9[:-1].sum()
    expected = (0.5 * (np.outer(p1, p9) + np.outer(p9, p1)) * trials).ravel()
    observed = joint.ravel()
    keep = expected >= 5.0  # chi-square validity cells; pool the rest
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(expected[keep], expected[~keep].sum())
    _, p_value = stats.chisquare(obs, exp * (obs.sum() / exp.sum()))
    assert p_value > 1e-4, f"mixture-law chi-square p={p_value}"


def test_symbol_stream_exact_take_and_exhaustion():
    stream = SymbolStream(np.array([1, 2, 3, 4, 5]))
    assert stream.take(2).tolist() == [1, 2]
    assert stream.consumed == 2
    assert stream.take(0).size == 0
    with pytest.raises(StreamExhausted):
        stream.take(10)


def test_symbol_stream_rejects_non_integer_sources():
    # a float symbol is refused, not truncated to an integer
    with pytest.raises(ValueError, match="integers"):
        SymbolStream([2.7, 3.2])
    # a finite stream is an array, not an iterator read one symbol at a time
    with pytest.raises(ValueError, match="1-D"):
        SymbolStream(iter([1, 2]))
    with pytest.raises(ValueError, match="1-D"):
        SymbolStream(np.array([[1, 2]]))
    assert SymbolStream([3, 1]).take(2).tolist() == [3, 1]
    assert SymbolStream([]).take(0).size == 0


def test_symbol_stream_from_sampler():
    stream = stream_from_distribution(DiscreteDistribution.uniform(6),
                                      SeededRng(15))
    block = stream.take(10_000)
    assert stream.consumed == 10_000
    assert block.min() >= 1 and block.max() <= 6
    skewed = stream_from_distribution(
        DiscreteDistribution(np.array([0.9, 0.1])), SeededRng(16))
    draws = skewed.take(20_000)
    assert abs((draws == 1).mean() - 0.9) < 0.01


def test_frequency_vector_validation():
    with pytest.raises(ValueError):
        validate_frequency_vector(np.array([1, -2]))
    with pytest.raises(ValueError):
        validate_frequency_vector(np.array([[1], [2]]))


def test_file_round_trips(tmp_path):
    freq_path = tmp_path / "freq.txt"
    freq_path.write_text("3\n0\n17\n")
    assert read_frequency_vector(freq_path).tolist() == [3, 0, 17]
    assert read_symbols(["5\n", "\n", "2\n"]).tolist() == [5, 2]
