"""Full tester: derivation self-check, scan semantics, relabeling invariance."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from unifwatch import (ACCEPT, REJECT, FullTesterParams, SeededRng,
                       UniformityTestConfig, derive_full_params,
                       hellinger_sq_bernoulli, run_full_tester,
                       subset_thresholds)
from unifwatch import full_tester, poisson
from unifwatch.full_tester import K_BLOCK, _live_bounds, _split_histograms
from unifwatch.interval_tester import (IntervalWitness, Verdict,
                                       interval_mass_matrix, poisson_pmf_table)

from reference import (dense_live_bounds, dense_scaled_bounds,
                       literal_full_tester, poisson_interval_mass)


def _dense_full_tester(params, freq, rng):
    """Reference scan: every (k, a, b) cell of the square, bounds for all k.

    This is the scan run_full_tester used before the live window: same
    split, same permutations, same bounds and the same K_BLOCK accounting,
    with O(n*(x_max+1)^2) memory.
    """
    hist = _split_histograms(params, freq, rng.child(0))
    width = params.x_max + 1
    per_k_intervals = width * (width + 1) // 2
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    lo_counts, hi_counts = dense_scaled_bounds(params, mu_mass)
    evaluated = 0
    generator = rng.child(1).generator
    for rep in range(params.r):
        perm = generator.permutation(params.n)
        cum = np.cumsum(hist[perm], axis=0)
        prefix = np.concatenate(
            (np.zeros((params.n, 1)), np.cumsum(cum, axis=1)), axis=1)
        for k0 in range(0, params.n, K_BLOCK):
            k1 = min(k0 + K_BLOCK, params.n)
            rows = prefix[k0:k1]
            counts = rows[:, None, 1:] - rows[:, :-1, None]
            viol = (counts <= lo_counts[k0:k1]) | (counts >= hi_counts[k0:k1])
            evaluated += (k1 - k0) * per_k_intervals
            if not viol.any():
                continue
            k_off, rest = divmod(int(np.argmax(viol)), width * width)
            a, b = divmod(rest, width)
            k = k0 + k_off + 1
            est = min(max(float(counts[k_off, a, b]) / (params.s * k), 0.0), 1.0)
            witness = IntervalWitness(
                a=a, b=b, mu_mass=float(mu_mass[a, b]), est_mass=est,
                hellinger_sq=float(hellinger_sq_bernoulli(float(mu_mass[a, b]), est)),
                repeat=rep, subset_size=k)
            return Verdict(outcome=REJECT, witness=witness,
                           intervals_evaluated=evaluated)
    return Verdict(outcome=ACCEPT, intervals_evaluated=evaluated)


def _live_rows(params, freq, rng):
    """L = 1 + the largest part value the tester's split keeps (0 if none)."""
    hist = _split_histograms(params, freq, rng.child(0))
    present = np.flatnonzero(hist.any(axis=0))
    return int(present[-1]) + 1 if present.size else 0


def _assert_matches_dense(params, freq, rng):
    fast = run_full_tester(params, freq, rng)
    dense = _dense_full_tester(params, freq, rng)
    assert fast == dense  # outcome and every witness field
    assert fast.intervals_evaluated == dense.intervals_evaluated
    return fast


def test_derive_frozen_defaults():
    params = derive_full_params(n=64, mu=2.0, delta=0.05)
    assert params.x_max == 65
    assert params.tau == pytest.approx(0.0036134878142458477, rel=1e-12)
    assert params.r == 7855
    assert params.s == 7357


def test_derive_formula_structure():
    n, mu, delta = 16, 2.0, 0.2
    params = derive_full_params(n, mu, delta)
    big_l = math.log(n)
    assert params.tau == pytest.approx(1.0 / (16.0 * big_l ** 2), rel=1e-12)
    assert params.x_max == math.ceil(2 * mu + 6 * (big_l + math.log(20 / delta)))
    assert params.r == math.ceil(8 * math.log(2 / delta) * n * big_l)
    assert params.s == math.ceil(
        math.log(8 * (params.x_max + 1) ** 2 * n * params.r / delta) / params.tau)


def test_derive_log_floor_for_tiny_domains():
    # ln(max(n, 3)) keeps tau finite at n = 2
    params = derive_full_params(n=2, mu=1.0, delta=0.1)
    assert params.tau == pytest.approx(1.0 / (16.0 * math.log(3.0) ** 2), rel=1e-12)


def test_derive_r_override_shrinks_s():
    full = derive_full_params(n=64, mu=2.0, delta=0.05)
    cheap = derive_full_params(n=64, mu=2.0, delta=0.05, r=512)
    assert cheap.r == 512
    assert cheap.s < full.s
    assert cheap.s == math.ceil(
        math.log(8 * (cheap.x_max + 1) ** 2 * 64 * 512 / 0.05) / cheap.tau)


def test_derive_self_check_rejects_unsound_overrides():
    with pytest.raises(ValueError, match="self-check"):
        derive_full_params(n=64, mu=2.0, delta=0.05, s=100)


def test_derive_validates_arguments():
    for kwargs in [dict(n=1, mu=2.0, delta=0.05),
                   dict(n=64, mu=-1.0, delta=0.05),
                   dict(n=64, mu=2.0, delta=0.0)]:
        with pytest.raises(ValueError):
            derive_full_params(**kwargs)
    # overrides are checked before s is derived from them; one of the wrong
    # type is refused, not a TypeError
    for override in [dict(r=0), dict(r=-3), dict(x_max=-1), dict(tau=0.0),
                     dict(tau=-0.1), dict(tau=math.nan), dict(tau=math.inf),
                     dict(r="4"), dict(x_max="5"), dict(tau="0.1"), dict(tau=True)]:
        with pytest.raises(ValueError, match="r must be >= 1, x_max >= 0"):
            derive_full_params(n=64, mu=2.0, delta=0.05, **override)


def test_subset_thresholds_exact():
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    thresholds = subset_thresholds(params)
    assert thresholds.shape == (16,)
    assert thresholds[0] == params.tau
    assert thresholds[7] == params.tau / 8


def test_run_validates_input():
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    rng = SeededRng(1)
    with pytest.raises(ValueError):
        run_full_tester(params, np.zeros(15, dtype=np.int64), rng)
    with pytest.raises(ValueError):
        run_full_tester(params, np.full(16, -1, dtype=np.int64), rng)


def test_run_guards_oversized_split_scale():
    params = FullTesterParams(n=2, mu=1.0, tau=0.1, s=10 ** 13, r=1, x_max=5)
    with pytest.raises(ValueError, match="too large"):
        run_full_tester(params, np.zeros(2, dtype=np.int64), SeededRng(2))


def test_split_histograms_match_the_exact_occupancy_law():
    """Pooled H[:, x] equals the exact occupancy expectation s*Binom(y, 1/s).pmf(x).

    The y samples of a coordinate fall uniformly into s bins, so the number
    N_x of bins holding exactly x of them has mean s*p, p = Binom(y, 1/s).pmf(x),
    and variance s*p*(1-p) + s*(s-1)*(p*q - p^2), where q =
    Binom(y-x, 1/(s-1)).pmf(x) is the chance that a second bin also holds x.
    Summed over 2,000 coordinates with counts 0..39, each column lies
    within 5 standard deviations of its exact mean; the parts above x_max
    are dropped, so the columns hold only x <= x_max.
    """
    s, x_max = 8, 8
    freq = np.tile(np.arange(40), 50)
    params = FullTesterParams(n=freq.size, mu=2.0, tau=0.1, s=s, r=1, x_max=x_max)
    hist = _split_histograms(params, freq, SeededRng(5))
    x = np.arange(x_max + 1)[None, :]
    y = freq[:, None]
    p = stats.binom.pmf(x, y, 1.0 / s)
    q = stats.binom.pmf(x, np.maximum(y - x, 0), 1.0 / (s - 1))
    mean = s * p
    var = s * p * (1.0 - p) + s * (s - 1) * (p * q - p * p)
    assert (hist.sum(axis=1) <= s).all()
    gap = np.abs(hist.sum(axis=0) - mean.sum(axis=0))
    assert (gap <= 5.0 * np.sqrt(var.sum(axis=0))).all(), gap


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 60), min_size=2, max_size=8),
       big=st.integers(300, 1000), where=st.integers(0, 7),
       s=st.integers(1, 30), x_max=st.integers(0, 12),
       seed=st.integers(0, 2**32 - 1))
def test_split_histograms_do_not_depend_on_the_chunk(counts, big, where, s,
                                                     x_max, seed):
    """SPLIT_CHUNK of 1, 7 or the default gives the same split and histograms.

    One count is far larger than both small chunks, so its samples are
    labelled over many chunks, and its parts still sum to it.  The
    histograms equal a per-coordinate bincount of the parts <= x_max.
    """
    freq = np.array(counts)
    freq[where % freq.size] = big
    params = FullTesterParams(n=freq.size, mu=1.0, tau=0.1, s=s, r=1, x_max=x_max)
    splits, hists = [], []
    for chunk in (1, 7, poisson.SPLIT_CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(poisson, "SPLIT_CHUNK", chunk)
            patch.setattr(full_tester, "SPLIT_CHUNK", chunk)
            splits.append(poisson.poisson_split(freq, s, SeededRng(seed)))
            hists.append(_split_histograms(params, freq, SeededRng(seed)))
    for parts, hist in zip(splits, hists):
        assert (parts == splits[0]).all() and (hist == hists[0]).all()
    parts = splits[0]
    assert (parts.sum(axis=1) == freq).all()
    kept = [np.bincount(row[row <= x_max], minlength=x_max + 1) for row in parts]
    assert (hists[0] == np.array(kept)).all()


def test_verdict_deterministic_and_seed_sensitive():
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    rng_freq = SeededRng(30).generator
    freq = rng_freq.poisson(params.s * 2.0, size=16)
    v1 = run_full_tester(params, freq, SeededRng(31))
    v2 = run_full_tester(params, freq, SeededRng(31))
    assert v1 == v2
    assert v1.intervals_evaluated == v2.intervals_evaluated


def test_work_counter_bounds():
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    ceiling = params.r * params.n * (params.x_max + 1) * (params.x_max + 2) // 2
    rng = SeededRng(32)
    freq = rng.child(0).generator.poisson(params.s * 2.0, size=16)
    accept = run_full_tester(params, freq, rng.child(1))
    assert accept.outcome == ACCEPT
    assert accept.intervals_evaluated == ceiling  # accept scans everything
    far = np.zeros(16, dtype=np.int64)
    far[0] = params.s * 40
    reject = run_full_tester(params, far, rng.child(2))
    assert reject.outcome == REJECT
    assert 0 < reject.intervals_evaluated <= ceiling


def test_reject_witness_is_reproducible_evidence():
    """The witness names a (repeat, k, interval) whose count really violates."""
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    rates = np.r_[np.full(8, 3.9), np.full(8, 0.1)]
    rng = SeededRng(33)
    freq = rng.child(0).generator.poisson(params.s * rates)
    verdict = run_full_tester(params, freq, rng.child(1))
    assert verdict.outcome == REJECT
    w = verdict.witness
    assert w.repeat is not None and w.subset_size is not None
    assert 0 <= w.a <= w.b <= params.x_max
    # replay the tester's own randomness: same split child, and the
    # permutation of repeat w.repeat drawn in order from child(1)
    tester_rng = rng.child(1)
    hist = _split_histograms(params, freq, tester_rng.child(0))
    generator = tester_rng.child(1).generator
    for _ in range(w.repeat + 1):
        perm = generator.permutation(params.n)
    count = hist[perm[:w.subset_size], w.a:w.b + 1].sum()
    est = count / (params.s * w.subset_size)
    assert w.est_mass == pytest.approx(min(est, 1.0), abs=1e-12)
    assert w.mu_mass == pytest.approx(
        poisson_interval_mass(params.mu, w.a, w.b).mass, abs=1e-12)
    gap = hellinger_sq_bernoulli(w.mu_mass, min(est, 1.0))
    assert w.hellinger_sq == pytest.approx(gap, abs=1e-12)
    assert gap >= params.tau / w.subset_size


def test_relabeling_invariance_of_reject_rate():
    """Reversing the rate profile leaves the reject rate unchanged.

    The profile is tuned to the borderline of detection so the rate is
    properly inside (0, 1); 200 trials per arm puts 3 sigma around 0.11.
    """
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    d = 0.14
    rates = np.full(16, 2.0)
    rates[:8] += d
    rates[8:] -= d

    def reject_rate(profile, base_seed):
        hits = 0
        for t in range(200):
            rng = SeededRng(base_seed + t)
            freq = rng.child(0).generator.poisson(params.s * profile)
            hits += run_full_tester(params, freq, rng.child(1)).outcome == REJECT
        return hits / 200

    rate_fwd = reject_rate(rates, 5000)
    rate_rev = reject_rate(rates[::-1].copy(), 9000)
    assert 0.3 < rate_fwd < 0.9, f"profile not borderline: {rate_fwd}"
    assert abs(rate_fwd - rate_rev) <= 0.15, (rate_fwd, rate_rev)


def test_literal_resampling_agrees_on_clear_instances():
    params = derive_full_params(n=4, mu=0.5, delta=0.5, r=2, x_max=8, s=300)
    rng = SeededRng(77)
    freq_null = rng.child(0).generator.poisson(300 * 0.5, size=4)
    assert run_full_tester(params, freq_null, rng.child(1)).outcome == ACCEPT
    assert literal_full_tester(params, freq_null, rng.child(1)).outcome == ACCEPT
    freq_far = np.array([600, 1, 1, 1])
    assert run_full_tester(params, freq_far, rng.child(2)).outcome == REJECT
    assert literal_full_tester(params, freq_far, rng.child(2)).outcome == REJECT


def test_null_accept_rate_small_scale():
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=48)
    assert params.s == 2234
    accepts = 0
    for t in range(20):
        rng = SeededRng(3000 + t)
        freq = rng.child(0).generator.poisson(params.s * 2.0, size=16)
        accepts += run_full_tester(params, freq, rng.child(1)).outcome == ACCEPT
    assert accepts >= 18  # delta = 0.2 allows a few, the seeds give 20/20


def test_lumpy_alternative_reject_rate_small_scale():
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=48)
    rates = np.r_[np.full(8, 3.9), np.full(8, 0.1)]
    rejects = 0
    for t in range(20):
        rng = SeededRng(4000 + t)
        freq = rng.child(0).generator.poisson(params.s * rates)
        rejects += run_full_tester(params, freq, rng.child(1)).outcome == REJECT
    assert rejects >= 18


def _cell_counts(hist, a, b):
    """Parts in each cell [a, b] per row of hist: one column per cell."""
    below = np.cumsum(hist, axis=1)  # parts <= x
    return below[:, b] - np.where(a > 0, below[:, a - 1], 0.0)


def _envelope(own):
    """Per k, the sums of the k smallest and the k largest rows of own."""
    ranked = np.sort(own, axis=0)
    return np.cumsum(ranked, axis=0), np.cumsum(ranked[::-1], axis=0)


def _repeat_scores(params, freq, rng):
    """Per repeat, the largest k * H^2 over its (k, a, b) cells.

    Repeat j holds a cell that fires at threshold tau/k exactly when tau is
    at most its score (up to rounding), so a tau between the score of
    repeat 0 and the largest later score makes the first rejection late.
    """
    hist = _split_histograms(params, freq, rng.child(0))
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    a, b = np.triu_indices(params.x_max + 1)
    k = np.arange(1, params.n + 1)[:, None]
    scores = []
    generator = rng.child(1).generator
    for rep in range(params.r):
        perm = generator.permutation(params.n)
        counts = _cell_counts(np.cumsum(hist[perm], axis=0), a, b)
        est = np.clip(counts / (params.s * k), 0.0, 1.0)
        scores.append((k * hellinger_sq_bernoulli(mu_mass[a, b], est)).max())
    return np.array(scores)


@st.composite
def _kernel_cases(draw, late=False):
    # many repeats only at small n: repeats 1..r-1 are scanned in batches of
    # 1, 2, 4, 8, 16, ... repeats, so r up to 32 reaches batches of 16;
    # late=True always puts tau where repeat 0 accepts (see below)
    many = late or draw(st.booleans())
    if many:
        n, r = draw(st.integers(2, 24)), draw(st.integers(4, 32))
    else:
        n, r = draw(st.integers(2, 300)), draw(st.integers(1, 3))
    x_max = draw(st.integers(0, 20))
    s = draw(st.integers(1, 12))
    params = FullTesterParams(n=n, mu=draw(st.floats(0.0, 4.0)),
                              tau=draw(st.floats(1e-3, 0.5)), s=s,
                              r=r, x_max=x_max)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zero", "single", "null", "lumpy", "above"]))
    freq = np.zeros(n, dtype=np.int64)  # "zero": every part is 0, so L = 1
    if kind == "single":
        freq[draw(st.integers(0, n - 1))] = draw(st.integers(1, 3 * s * (x_max + 2)))
    elif kind == "null":
        freq = gen.poisson(s * params.mu, size=n)
    elif kind == "lumpy":
        freq = gen.poisson(s * params.mu * gen.gamma(0.5, 2.0, size=n))
    elif kind == "above":
        # every part of a chosen coordinate lands above x_max and is
        # dropped; when all coordinates are chosen the split keeps nothing
        chosen = gen.random(n) < draw(st.sampled_from([0.5, 1.0]))
        freq[chosen] = 60 * s * (x_max + 1)
    seed = draw(st.integers(0, 2**32 - 1))
    if many and (late or draw(st.booleans())):
        # most random thresholds reject at repeat 0; put tau where repeat 0
        # accepts and a later repeat, often inside a batch, rejects
        scores = _repeat_scores(params, freq, SeededRng(seed))
        if scores[1:].max() > scores[0]:
            tau = scores[0] + draw(st.floats(0.05, 0.95)) * (scores[1:].max() - scores[0])
            params = dataclasses.replace(params, tau=float(tau))
    return params, freq, seed


@settings(max_examples=400, deadline=None)
@given(case=_kernel_cases())
def test_live_window_kernel_matches_dense_scan(case):
    params, freq, seed = case
    _assert_matches_dense(params, freq, SeededRng(seed))


@settings(max_examples=100, deadline=None)
@given(case=_kernel_cases(late=True))
def test_later_repeat_rejects_match_dense_scan_in_any_batching(case):
    """A first rejection at repeat >= 1 equals the dense scan's, whose
    permutations are one permutation(n) call per repeat, and stays the same
    when BATCH_COUNTS caps every batch at one repeat."""
    params, freq, seed = case
    verdict = _assert_matches_dense(params, freq, SeededRng(seed))
    assume(verdict.outcome == REJECT and verdict.witness.repeat >= 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(full_tester, "BATCH_COUNTS", 1)
        single = run_full_tester(params, freq, SeededRng(seed))
    assert single == verdict
    assert single.intervals_evaluated == verdict.intervals_evaluated


@st.composite
def _bounds_cases(draw):
    """An operating point, a live window L and a block k0+1..k1 of sizes.

    mu = 0 gives cells of zero mass; tau/k reaching and passing 2 gives the
    sentinels; L covers no live cell (0), one (1), no zero-count cell
    (x_max + 1) and one (x_max).
    """
    n = draw(st.integers(2, 300))
    k0 = draw(st.integers(0, n - 1))
    k1 = draw(st.integers(k0 + 1, min(n, k0 + 2 * K_BLOCK)))
    x_max = draw(st.integers(0, 30))
    mu = draw(st.one_of(st.just(0.0), st.floats(0.0, 40.0)))
    tau = draw(st.one_of(st.floats(1e-4, 1.0),
                         st.floats(1.5, 2.5).map(lambda t: t * (k0 + 1)),
                         st.just(2.0 * (k0 + 1))))
    live = draw(st.one_of(st.sampled_from([0, 1, x_max, x_max + 1]),
                          st.integers(0, x_max + 1)))
    params = FullTesterParams(n=n, mu=mu, tau=tau, s=draw(st.integers(1, 20_000)),
                              r=1, x_max=x_max)
    return params, live, k0, k1


@settings(max_examples=400, deadline=None)
@given(case=_bounds_cases())
@example(case=(FullTesterParams(n=171, mu=3.1437893427254116,
                                tau=0.08508606546359844, s=12836, r=1, x_max=28),
               27, 0, 171))
def test_live_bounds_equal_the_dense_reduction(case):
    """_live_bounds equals bounds built over the whole square and reduced.

    The example is a point where hi at b = L-1 is 1 ulp above the min of
    hi over the tail b >= L-1, so only the min folds the tail exactly.
    """
    params, live, k0, k1 = case
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    got = _live_bounds(params, mu_mass, live, k0, k1)
    want = dense_live_bounds(params, mu_mass, live, k0, k1)
    for table, reference in zip(got, want):
        assert table.shape == reference.shape
        assert np.array_equal(table, reference)


def test_null_accept_peak_memory_at_a_thousand_coordinates():
    """Only the live window's bounds are built: a null accept at n = 1000,
    whose split keeps parts up to 5 of an x_max of 74, peaks at about 5 MiB
    of traced allocations, not at a block of the whole square."""
    params = UniformityTestConfig(1000, 64, 0.1, {"r": 16}).params
    rng = SeededRng(12)
    freq = rng.child(0).generator.poisson(params.s * params.mu, size=params.n)
    tracemalloc.start()
    try:
        verdict = run_full_tester(params, freq, rng.child(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.outcome == ACCEPT
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_live_cell_witness():
    """A witness inside the live triangle a <= b < L, found at repeat 0."""
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    rates = np.r_[np.full(8, 3.9), np.full(8, 0.1)]
    rng = SeededRng(33)
    freq = rng.child(0).generator.poisson(params.s * rates)
    verdict = _assert_matches_dense(params, freq, rng.child(1))
    live = _live_rows(params, freq, rng.child(1))
    w = verdict.witness
    assert (w.a, w.b, w.repeat, w.subset_size) == (0, 0, 0, 1)
    assert w.b < live == 16 < params.x_max
    assert verdict.intervals_evaluated == 16 * 50 * 51 // 2


def test_tail_cell_witness():
    """A witness with a < L <= b: recovered from the folded cell [a, L-1]."""
    params = FullTesterParams(n=2, mu=1.0, tau=0.8, s=5, r=1, x_max=2)
    freq = np.array([0, 5000])  # all parts 0, or all far above x_max
    verdict = _assert_matches_dense(params, freq, SeededRng(1))
    assert _live_rows(params, freq, SeededRng(1)) == 1
    w = verdict.witness
    assert (w.a, w.b, w.repeat, w.subset_size) == (0, 1, 0, 1)
    assert w.est_mass == 0.0
    assert verdict.intervals_evaluated == 2 * 6


def test_zero_cell_witness():
    """Witnesses with a >= L, whose count is 0 at every k and repeat."""
    params = FullTesterParams(n=2, mu=1.0, tau=0.8, s=5, r=1, x_max=2)
    freq = np.array([0, 5000])
    verdict = _assert_matches_dense(params, freq, SeededRng(0))
    assert _live_rows(params, freq, SeededRng(0)) == 1
    w = verdict.witness
    assert (w.a, w.b, w.repeat, w.subset_size) == (1, 1, 0, 2)
    assert w.est_mass == 0.0
    # the split keeps nothing at all (L = 0): every cell counts 0
    params = FullTesterParams(n=3, mu=1.0, tau=0.1, s=1, r=1, x_max=0)
    freq = np.array([3, 3, 3])
    verdict = _assert_matches_dense(params, freq, SeededRng(0))
    assert _live_rows(params, freq, SeededRng(0)) == 0
    w = verdict.witness
    assert (w.a, w.b, w.repeat, w.subset_size) == (0, 0, 0, 1)
    assert verdict.intervals_evaluated == 3


def test_reject_in_second_k_block_counts_whole_blocks():
    """Repeat 0 accepts, repeat 1 rejects at k > K_BLOCK: both blocks count.

    Seed 338 is the first from 0 at which _dense_full_tester's first
    rejection on this profile falls at repeat 1 with k > K_BLOCK.
    """
    params = FullTesterParams(n=200, mu=1.0, tau=0.1, s=20, r=8, x_max=6)
    rates = np.r_[np.full(100, 1.03), np.full(100, 0.97)]
    rng = SeededRng(338)
    freq = rng.child(0).generator.poisson(params.s * rates)
    verdict = _assert_matches_dense(params, freq, rng.child(1))
    assert K_BLOCK < verdict.witness.subset_size == 169
    assert verdict.witness.repeat == 1
    assert verdict.intervals_evaluated == 2 * 200 * 28


def _late_reject_case():
    """A borderline profile whose first rejection comes at repeat 5.

    Seed 7070 is the first from 7000 at which _dense_full_tester's first
    rejection on this profile falls at repeat 5, inside the batch of four.
    """
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    rates = np.full(16, 2.0)
    rates[:8] += 0.14
    rates[8:] -= 0.14
    rng = SeededRng(7070)
    return params, rng.child(0).generator.poisson(params.s * rates), rng.child(1)


def test_reject_inside_a_batch_of_four_matches_dense_scan(monkeypatch):
    """Repeats 3..6 form the batch of four; repeat 5 holds the witness.

    The same holds when the batch working set caps every batch at one
    repeat, so the witness does not depend on how repeats are batched.
    """
    params, freq, rng = _late_reject_case()
    verdict = _assert_matches_dense(params, freq, rng)
    w = verdict.witness
    assert (w.repeat, w.subset_size, w.a, w.b) == (5, 5, 0, 1)
    per_k = (params.x_max + 1) * (params.x_max + 2) // 2
    assert verdict.intervals_evaluated == (5 * 16 + 16) * per_k
    monkeypatch.setattr(full_tester, "BATCH_COUNTS", 1)
    assert _assert_matches_dense(params, freq, rng) == verdict


class _KeepChildren(SeededRng):
    """A SeededRng that keeps each child it hands out, by index."""

    def __init__(self, seed, path=()):
        super().__init__(seed, path)
        self.children = {}

    def child(self, index):
        self.children[index] = super().child(index)
        return self.children[index]


def _assert_drew_permutations(rng, n, count):
    """The tester took children 0 and 1 only, and left child 1's generator
    where exactly count permutation(n) calls on a fresh one leave it."""
    assert sorted(rng.children) == [0, 1]
    fresh = SeededRng(rng.seed, rng.path + (1,)).generator
    for _ in range(count):
        fresh.permutation(n)
    used = rng.children[1].generator
    assert str(used.bit_generator.state) == str(fresh.bit_generator.state)


def test_reject_at_repeat_zero_derives_one_permutation():
    """A repeat-0 reject draws no permutation of a later repeat."""
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    rates = np.r_[np.full(8, 3.9), np.full(8, 0.1)]
    rng = SeededRng(33)
    freq = rng.child(0).generator.poisson(params.s * rates)
    tester_rng = _KeepChildren(33, (1,))
    verdict = run_full_tester(params, freq, tester_rng)
    assert verdict.outcome == REJECT and verdict.witness.repeat == 0
    _assert_drew_permutations(tester_rng, params.n, 1)


def test_silent_accept_derives_one_permutation():
    """An accept whose envelope leaves no (k, cell) pair able to fire draws
    the permutation of repeat 0 and no other."""
    params, _, rng = _late_reject_case()
    freq = rng.child(0).generator.poisson(params.s * 2.0, size=16)
    assert _reachable_pairs(params, freq, rng) == 0
    tester_rng = _KeepChildren(rng.seed, rng.path)
    assert run_full_tester(params, freq, tester_rng).outcome == ACCEPT
    _assert_drew_permutations(tester_rng, params.n, 1)


def test_reachable_accept_derives_every_permutation_once():
    """An accept that keeps a reachable pair scans, so draws, all r repeats.

    Seed 7000 is the first from 7000 at which the borderline profile of
    _late_reject_case accepts with a reachable pair (209 of 1,248).
    """
    params = derive_full_params(n=16, mu=2.0, delta=0.2, r=24)
    rates = np.full(16, 2.0)
    rates[:8] += 0.14
    rates[8:] -= 0.14
    rng = SeededRng(7000)
    freq = rng.child(0).generator.poisson(params.s * rates)
    assert _reachable_pairs(params, freq, rng.child(1)) == 209
    tester_rng = _KeepChildren(7000, (1,))
    assert run_full_tester(params, freq, tester_rng).outcome == ACCEPT
    _assert_drew_permutations(tester_rng, params.n, params.r)


def test_null_accept_at_the_derived_point_derives_one_permutation():
    """At n=64, m=8, delta=0.1 (r = 6,379) a null accept decides every later
    repeat from the envelope: seed 0 leaves no reachable pair (of seeds
    0-9, only 5, 6 and 7 keep 3-20 pairs), so it draws one permutation."""
    params = UniformityTestConfig(64, 8, 0.1).params
    assert params.r == 6379
    freq = SeededRng(0).child(0).generator.poisson(params.s * params.mu, size=params.n)
    tester_rng = _KeepChildren(0, (1,))
    verdict = run_full_tester(params, freq, tester_rng)
    assert verdict.outcome == ACCEPT
    assert verdict.intervals_evaluated == params.r * 64 * 59 * 60 // 2
    _assert_drew_permutations(tester_rng, params.n, 1)


def _reachable_pairs(params, freq, rng):
    """How many live (k, cell) pairs the sorted-count envelope lets fire."""
    hist = _split_histograms(params, freq, rng.child(0))
    live = _live_rows(params, freq, rng)
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    lo, hi, _ = _live_bounds(params, mu_mass, live, 0, params.n)
    low, high = _envelope(_cell_counts(hist[:, :live], *np.triu_indices(live)))
    return int(((low <= lo) | (high >= hi)).sum())


@settings(max_examples=200, deadline=None)
@given(counts=st.integers(1, 30).flatmap(lambda n: st.lists(
           st.lists(st.integers(0, 1000), min_size=n, max_size=n),
           min_size=1, max_size=12)),
       seed=st.integers(0, 2**32 - 1))
def test_prefix_sums_lie_inside_the_sorted_envelope(counts, seed):
    """For any nonnegative counts and any permutation, the sum of the first
    k rows lies between the sums of the k smallest and k largest counts."""
    own = np.array(counts, dtype=np.float64).T  # (coordinate, cell)
    perm = np.random.default_rng(seed).permutation(own.shape[0])
    prefix = np.cumsum(own[perm], axis=0)
    low, high = _envelope(own)
    assert (low <= prefix).all() and (prefix <= high).all()


def _envelope_edge(params, freq, rng):
    """The largest k * H^2 the sorted-count envelope allows any (k, a, b).

    Every count of repeat j lies inside the envelope, so no repeat scores
    above it, and a tau between repeat 0's score and this edge leaves the
    pairs whose envelope reaches tau, few of them when tau is near it.
    """
    hist = _split_histograms(params, freq, rng.child(0))
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    a, b = np.triu_indices(params.x_max + 1)
    k = np.arange(1, params.n + 1)[:, None]
    edge = 0.0
    for side in _envelope(_cell_counts(hist, a, b)):
        est = np.clip(side / (params.s * k), 0.0, 1.0)
        edge = max(edge, (k * hellinger_sq_bernoulli(mu_mass[a, b], est)).max())
    return edge


@st.composite
def _envelope_cases(draw):
    """_kernel_cases(late=True) inputs with tau moved above repeat 0's
    score and near either the envelope's edge or the best later repeat's
    score, so repeat 0 accepts, only a few (k, cell) pairs stay reachable,
    and near the best later score one of them fires."""
    params, freq, seed = draw(_kernel_cases(late=True))
    scores = _repeat_scores(params, freq, SeededRng(seed))
    edge = _envelope_edge(params, freq, SeededRng(seed))
    assume(edge > scores[0])
    if scores[1:].max() > scores[0] and draw(st.integers(0, 3)):
        edge = scores[1:].max()
    tau = scores[0] + draw(st.floats(0.6, 0.999)) * (edge - scores[0])
    return dataclasses.replace(params, tau=float(tau)), freq, seed


@settings(max_examples=200, deadline=None)
@given(case=_envelope_cases())
@example(case=(FullTesterParams(n=3, mu=1.0, tau=1.377142691005783, s=1, r=4,
                                x_max=0), np.array([1, 0, 0]), 0))
@example(case=(FullTesterParams(n=3, mu=2.0, tau=1.2030872706348212, s=2, r=4,
                                x_max=1), np.array([2, 0, 7]), 0))
@example(case=(FullTesterParams(n=4, mu=2.0, tau=1.7583150425087912, s=1, r=4,
                                x_max=1), np.array([1, 1, 2, 0]), 0))
def test_envelope_pruned_scan_matches_dense_scan_in_any_batching(case):
    """With few reachable pairs, the scan of the reachable rectangle equals
    the dense scan, and equals itself with every batch capped at one
    repeat.  The examples reject on the rectangle's edge: at its largest
    k, in its first cell and in its last cell."""
    params, freq, seed = case
    verdict = _assert_matches_dense(params, freq, SeededRng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(full_tester, "BATCH_COUNTS", 1)
        single = run_full_tester(params, freq, SeededRng(seed))
    assert single == verdict
    assert single.intervals_evaluated == verdict.intervals_evaluated
