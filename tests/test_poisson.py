"""Sampling, splitting, Poissonization, and stream plumbing.

Monte Carlo checks run at fixed seeds, so pass/fail is deterministic;
tolerances are sized at 3-5 sigma of the corresponding estimator.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from unifwatch import (DiscreteDistribution, SeededRng, StreamExhausted,
                       SymbolStream, poissonize, read_frequency_vector,
                       read_symbols, stream_from_distribution)
from unifwatch import poisson
from unifwatch.poisson import poisson_split, validate_frequency_vector

from reference import depoissonize, multinomial_split, sample_perm_poisson


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
    with pytest.raises(ValueError):
        root.child(-1)


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


def test_poisson_split_validates_counts():
    rng = SeededRng(4)
    for y in [-1, [3, -2], [[1, 2]], 2.5, [1.0, 2.0]]:
        with pytest.raises(ValueError):
            poisson_split(y, 3, rng)
    with pytest.raises(ValueError):
        poisson_split(3, 0, rng)
    assert poisson_split([], 3, rng).shape == (0, 3)


def test_poisson_split_of_an_array_splits_each_count_in_order():
    """One call on an array equals one call per count, in order, on one rng."""
    counts = np.array([5, 0, 17, 3, 1, 40])
    one_by_one = SeededRng(8)
    expected = np.stack([poisson_split(int(y), 6, one_by_one) for y in counts])
    parts = poisson_split(counts, 6, SeededRng(8))
    assert parts.shape == (6, 6)
    assert (parts == expected).all()
    assert (parts.sum(axis=1) == counts).all()


def test_poisson_split_matches_multinomial_reference():
    """Balls into bins draws the law of the multinomial reference split.

    Two-sample chi-square tests over 20,000 splits of y=12 into s=5 parts
    on each side: on part 0 (marginally Binomial(12, 1/5)) and on the
    number of empty parts, which depends on all parts jointly.  Each
    statistic is capped so that every cell expects hundreds of splits.
    """
    y, s, trials = 12, 5, 20_000
    fast = poisson_split(np.full(trials, y), s, SeededRng(40))
    ref_rng = SeededRng(41)
    ref = np.stack([multinomial_split(y, s, ref_rng) for _ in range(trials)])
    assert (ref.sum(axis=1) == y).all()
    for statistic, cap in [(lambda parts: parts[:, 0], 6),
                           (lambda parts: (parts == 0).sum(axis=1), 2)]:
        table = [np.bincount(np.minimum(statistic(parts), cap), minlength=cap + 1)
                 for parts in (fast, ref)]
        assert stats.chi2_contingency(np.array(table)).pvalue > 1e-3


def test_poisson_split_memory_is_bounded_by_the_chunk(monkeypatch):
    """A count 1,000 times SPLIT_CHUNK splits exactly, in O(SPLIT_CHUNK) memory.

    Its labels alone would take 8 MB at once; drawn a chunk at a time the
    split's tracemalloc peak stays below eight int64 arrays of a chunk.
    """
    chunk, y = 1000, 1_000_000
    counts = np.array([5, y, 7])
    # the default chunk; the first split also sets up numpy's sampling
    expected = poisson_split(counts, 3, SeededRng(9))
    monkeypatch.setattr(poisson, "SPLIT_CHUNK", chunk)
    rng = SeededRng(9)
    tracemalloc.start()
    try:
        parts = poisson_split(counts, 3, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parts.sum(axis=1).tolist() == [5, y, 7]
    assert (parts == expected).all()
    assert peak < 8 * 8 * chunk, peak


def test_poisson_split_of_many_chunks_bincounts_only_the_spanned_counts(monkeypatch):
    """A many-chunk array split equals splitting its counts one by one, and
    its tracemalloc peak is the parts plus O(len(y) + SPLIT_CHUNK): each
    chunk counts only the bins of the counts its labels span, not all
    len(y)*s bins, which would take a second array of parts.
    """
    chunk, s = 1000, 30
    counts = SeededRng(17).generator.poisson(50.0, size=2000)
    counts[100:140] = 0  # a run of empty counts inside one chunk
    monkeypatch.setattr(poisson, "SPLIT_CHUNK", chunk)
    one_by_one = SeededRng(18)
    expected = np.stack([poisson_split(int(y), s, one_by_one) for y in counts])
    rng = SeededRng(18)
    tracemalloc.start()
    try:
        parts = poisson_split(counts, s, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.sum() > 50 * chunk
    assert (parts == expected).all()
    assert peak < parts.nbytes + 4 * counts.nbytes + 8 * 8 * chunk, peak


def test_poisson_split_marginals_poisson():
    """Splitting Poi(s*lam) into s parts yields i.i.d. Poi(lam) coordinates."""
    lam, s, trials = 2.0, 5, 100_000
    rng = SeededRng(6)
    totals = rng.child(0).generator.poisson(s * lam, size=trials)
    parts = poisson_split(totals, s, rng.child(1))
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


def test_poissonize_makes_no_copy_of_the_samples():
    samples = SeededRng(19).generator.integers(1, 1001, size=1_000_000)
    expected = np.array([(samples == v).sum() for v in range(1, 1001)])
    tracemalloc.start()
    try:
        freq = poissonize(samples, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert freq.dtype == np.int64
    assert (freq == expected).all()
    assert peak < samples.nbytes // 10, peak


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
    # so is a sampler's block of floats, at the take that reads it
    stream = SymbolStream(lambda k: np.full(k, 3.9))
    with pytest.raises(ValueError, match="integers, got dtype float64"):
        stream.take(4)
    assert stream.consumed == 0


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


class _Probs:
    """A duck-typed distribution: anything with a probs array."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)


def _profile(kind: str, n: int, seed: int) -> np.ndarray:
    gen = SeededRng(seed).generator
    probs = gen.random(n)
    if kind == "zero_runs":
        for start in gen.integers(0, n, size=3):
            probs[start:start + int(gen.integers(1, n))] = 0.0
        if not probs.any():
            probs[int(gen.integers(0, n))] = 1.0
    elif kind == "first":
        probs = np.zeros(n)
        probs[0] = 1.0
    elif kind == "last":
        probs = np.zeros(n)
        probs[-1] = 1.0
    elif kind == "skewed":
        probs = probs ** 8
    return probs / probs.sum()


# (attribute, value) pairs: the default chunk and table, chunks of 1 and 7,
# and a table of 1 and of 4 buckets, where most draws take the binary search
_SAMPLER_SETTINGS = [None, ("TAKE_CHUNK", 1), ("TAKE_CHUNK", 7),
                     ("GUIDE_CAP", 1), ("GUIDE_CAP", 4)]


@pytest.mark.parametrize("setting", _SAMPLER_SETTINGS)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 3000),
       kind=st.sampled_from(["random", "zero_runs", "first", "last", "skewed"]),
       seed=st.integers(0, 2**32 - 1),
       takes=st.lists(st.integers(0, 1500), min_size=1, max_size=3))
def test_stream_equals_generator_choice(setting, n, kind, seed, takes):
    """Every take equals Generator.choice(n, p=probs) + 1 from the same seed,
    and the generators end in the same state, however the takes are cut."""
    probs = _profile(kind, n, seed)
    with pytest.MonkeyPatch.context() as patch:
        if setting is not None:
            patch.setattr(poisson, *setting)
        rng = SeededRng(seed)
        stream = stream_from_distribution(_Probs(probs), rng)
        symbols = np.concatenate([stream.take(k) for k in takes])
    reference = SeededRng(seed)
    expected = reference.generator.choice(n, size=sum(takes), p=probs) + 1
    assert symbols.dtype == np.int64
    assert (symbols == expected).all()
    assert stream.consumed == sum(takes)
    assert rng.generator.random() == reference.generator.random()


def test_stream_refuses_bad_probabilities_when_built():
    """choice's checks on p run once, at the build, not at the first take.

    choice refuses any negative entry, and so does the stream, before any
    take; DiscreteDistribution stores its slack entries in [-PROB_SLACK, 0)
    as 0, so only an object of another type can carry one here.
    """
    slightly_negative = [0.5, 0.5 + 1e-13, -1e-13]
    with pytest.raises(ValueError, match="negative"):
        stream_from_distribution(_Probs(slightly_negative), SeededRng(23))
    with pytest.raises(ValueError, match="sum"):
        stream_from_distribution(_Probs([0.5, 0.5 + 1e-6]), SeededRng(23))
    with pytest.raises(ValueError, match="NaN"):
        stream_from_distribution(_Probs([0.5, np.nan]), SeededRng(23))
    with pytest.raises(ValueError, match="1-D"):
        stream_from_distribution(_Probs([[0.5, 0.5]]), SeededRng(23))
    # within sqrt(eps) of 1, as choice allows
    stream = stream_from_distribution(_Probs([0.5, 0.5 + 1e-9]), SeededRng(23))
    assert stream.take(4).size == 4


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
