"""Distance and PMF computations against frozen extended-precision values.

Frozen constants were produced by a 60-digit mpmath evaluation; several are
re-derived here at runtime with mpmath so the pins cannot drift silently.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unifwatch import (DiscreteDistribution, FullTesterParams,
                       IntervalTesterParams, PoissonMixture,
                       StructureViolationError, SymbolStream,
                       UniformityTestConfig, best_interval,
                       collision_count_baseline, derive_full_params,
                       hellinger_sq, hellinger_sq_bernoulli,
                       hellinger_sq_bernoulli_bounds, log_pmf_ratio,
                       mixture_pmf, poisson_log_pmf, poissonize, tracker_new)
from unifwatch.distances import check_integers
from unifwatch.poisson import SeededRng, poisson_split

from conftest import random_distribution
from reference import (eliminate_large_witness, kl_divergence, pmf_ratio,
                       poisson_interval_mass, tv_distance)

MIX_5_15 = PoissonMixture(np.array([5.0, 15.0]))

# 60-digit mpmath evaluations, frozen
POI_5_AT_10 = 0.0181327887078219
MIX_1_2_3_AT_2 = 0.226217364904778
POI_3_MASS_2_5 = 0.716933784497241
HSQ_BER_025_016 = 0.0125492133612456


def mp_poisson_pmf(rate, x):
    with mpmath.workdps(50):
        return float(mpmath.exp(-rate) * mpmath.mpf(rate) ** x / mpmath.factorial(x))


def test_poisson_log_pmf_degenerate():
    assert poisson_log_pmf(0.0, 0) == 0.0
    assert poisson_log_pmf(0.0, 5) == -math.inf


def test_poisson_log_pmf_plot_coordinate():
    # (10, 10) reads 0.125110 off the reference curve
    assert abs(math.exp(poisson_log_pmf(10.0, 10)) - 0.125110) < 1e-5


def test_poisson_log_pmf_against_extended_precision():
    assert abs(math.exp(poisson_log_pmf(5.0, 10)) - POI_5_AT_10) < 1e-12
    # live re-derivation so the frozen pin cannot rot
    assert abs(mp_poisson_pmf(5, 10) - POI_5_AT_10) < 1e-15
    for rate, x in [(0.3, 0), (1.0, 7), (25.0, 40), (300.0, 280)]:
        got = math.exp(poisson_log_pmf(rate, x))
        want = mp_poisson_pmf(rate, x)
        assert abs(got - want) <= 1e-12 * max(want, 1e-30), f"Poi({rate})({x})"


def test_poisson_log_pmf_rejects_bad_inputs():
    for rate, x in [(-1.0, 0), (math.nan, 0), (math.inf, 0), (1.0, -1)]:
        with pytest.raises(ValueError):
            poisson_log_pmf(rate, x)


def test_mixture_pmf_plot_coordinate():
    assert abs(mixture_pmf(MIX_5_15, 10) - 0.033372) < 1e-5


def test_mixture_pmf_single_component_exact():
    for lam in [0.0, 0.5, 7.0]:
        for x in range(12):
            assert mixture_pmf(PoissonMixture(np.array([lam])), x) == \
                math.exp(poisson_log_pmf(lam, x))


def test_mixture_pmf_three_components():
    mix = PoissonMixture(np.array([1.0, 2.0, 3.0]))
    assert abs(mixture_pmf(mix, 2) - MIX_1_2_3_AT_2) < 1e-12
    with mpmath.workdps(50):
        want = float(sum(mpmath.exp(-r) * mpmath.mpf(r) ** 2 / 2
                         for r in (1, 2, 3)) / 3)
    assert abs(mixture_pmf(mix, 2) - want) < 1e-15


def test_pmf_ratio_plot_coordinates():
    # reference-curve readings at x = 7, 10, 14, 15, 20
    assert abs(pmf_ratio(MIX_5_15, 10.0, 10) - 0.26674) < 1e-4
    assert abs(pmf_ratio(MIX_5_15, 10.0, 20) - 11.20277) < 1e-4
    assert abs(pmf_ratio(MIX_5_15, 10.0, 7) - 0.63730) < 1e-4
    assert abs(pmf_ratio(MIX_5_15, 10.0, 14) - 0.98803) < 1e-4
    assert abs(pmf_ratio(MIX_5_15, 10.0, 15) - 1.47752) < 1e-4


def test_pmf_ratio_identical_is_one():
    for mu in [0.25, 1.0, 11.0]:
        mix = PoissonMixture(np.array([mu]))
        for x in range(20):
            assert pmf_ratio(mix, mu, x) == pytest.approx(1.0, abs=1e-12)


def test_pmf_ratio_zero_denominator_signals():
    with pytest.raises(ValueError):
        pmf_ratio(MIX_5_15, 0.0, 3)
    # x = 0 keeps a defined ratio: both masses are positive
    assert pmf_ratio(PoissonMixture(np.array([1.0])), 0.0, 0) == \
        pytest.approx(math.exp(-1.0))


def ratio_convexity_holds(mix, mu, x, slack=1e-9):
    """Second-difference check; beyond float range, falls back to log space.

    The ratio is a positive sum of exponentials in x, so log-convexity holds
    and implies convexity; the log check only substitutes where the plain
    values overflow.
    """
    logs = [log_pmf_ratio(mix, mu, xi) for xi in (x - 1, x, x + 1)]
    if max(logs) < 700.0:
        lo, mid, hi = (math.exp(v) for v in logs)
        return lo + hi >= 2.0 * mid - slack * max(1.0, mid)
    return logs[0] + logs[2] >= 2.0 * logs[1] - slack


def test_pmf_ratio_discrete_convexity_local():
    gen = SeededRng(41).generator
    for _ in range(300):
        k = int(gen.integers(1, 4))
        mix = PoissonMixture(gen.uniform(0.0, 50.0, size=k))
        mu = float(gen.uniform(0.05, 50.0))
        x = int(gen.integers(1, 200))
        assert ratio_convexity_holds(mix, mu, x), \
            f"convexity broke at mu={mu} x={x} rates={mix.rates}"


def test_log_pmf_ratio_matches_ratio():
    for x in [0, 3, 10, 25, 60]:
        assert math.exp(log_pmf_ratio(MIX_5_15, 10.0, x)) == \
            pytest.approx(pmf_ratio(MIX_5_15, 10.0, x), rel=1e-12)


def test_poisson_interval_mass_full_support():
    assert poisson_interval_mass(10.0, 0, 200).mass == pytest.approx(1.0, abs=1e-12)


def test_poisson_interval_mass_singleton():
    assert abs(poisson_interval_mass(10.0, 10, 10).mass - 0.125110) < 1e-5


def test_poisson_interval_mass_frozen():
    got = poisson_interval_mass(3.0, 2, 5)
    assert got.a == 2 and got.b == 5
    assert abs(got.mass - POI_3_MASS_2_5) < 1e-12


def test_poisson_interval_mass_monotone_to_one():
    prev = -1.0
    for b in range(0, 80, 4):
        mass = poisson_interval_mass(9.0, 0, b).mass
        assert mass >= prev
        prev = mass
    assert prev == pytest.approx(1.0, abs=1e-10)


def test_poisson_interval_mass_rejects_bad_interval():
    with pytest.raises(ValueError):
        poisson_interval_mass(1.0, 3, 2)


def test_hellinger_sq_bernoulli_edges():
    assert hellinger_sq_bernoulli(0.37, 0.37) == 0.0
    assert hellinger_sq_bernoulli(0.0, 1.0) == pytest.approx(2.0)
    assert abs(hellinger_sq_bernoulli(0.25, 0.16) - HSQ_BER_025_016) < 1e-12
    with pytest.raises(ValueError):
        hellinger_sq_bernoulli(-0.01, 0.5)
    with pytest.raises(ValueError):
        hellinger_sq_bernoulli(0.5, 1.01)


def test_hellinger_sq_bernoulli_vectorized():
    qs = np.linspace(0.0, 1.0, 11)
    got = hellinger_sq_bernoulli(0.3, qs)
    for i, q in enumerate(qs):
        assert got[i] == pytest.approx(hellinger_sq_bernoulli(0.3, float(q)))


def test_hellinger_sq_bernoulli_bounds_invert_threshold():
    """Closed-form crossing points: q is flagged iff q <= lo or q >= hi."""
    gen = SeededRng(17).generator
    grid = np.linspace(0.0, 1.0, 2001)
    for _ in range(250):
        mu_mass = float(gen.uniform(0.0, 1.0))
        threshold = float(gen.uniform(1e-5, 1.9))
        lo, hi = hellinger_sq_bernoulli_bounds(mu_mass, threshold)
        direct = hellinger_sq_bernoulli(mu_mass, grid) >= threshold
        closed = (grid <= lo) | (grid >= hi)
        # grid points seated exactly on a crossing may flip either way
        boundary = np.abs(hellinger_sq_bernoulli(mu_mass, grid) - threshold) < 1e-11
        disagree = (direct != closed) & ~boundary
        assert not disagree.any(), \
            f"bounds disagree at mu_I={mu_mass} t={threshold} " \
            f"q={grid[disagree][:4]}"


def test_hellinger_sq_bernoulli_bounds_sentinels():
    # threshold beyond reach from above: no upper crossing, hi sentinel 2.0
    lo, hi = hellinger_sq_bernoulli_bounds(0.999, 1.5)
    assert hi == 2.0
    # tiny mu and large threshold: no lower crossing, lo sentinel -1.0
    lo, hi = hellinger_sq_bernoulli_bounds(1e-6, 1.9)
    assert lo == -1.0


PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
THRESHOLDS = st.one_of(st.sampled_from([2.0, 2.5, 4.0]),
                       st.floats(1e-9, 3.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(PROBS, THRESHOLDS), min_size=1, max_size=30))
def test_hellinger_sq_bernoulli_bounds_arrays_match_scalars(pairs):
    mu = np.array([p for p, _ in pairs])
    threshold = np.array([t for _, t in pairs])
    lo, hi = hellinger_sq_bernoulli_bounds(mu, threshold)
    # the outer broadcast the full tester uses: thresholds down, masses across
    lo_outer, hi_outer = hellinger_sq_bernoulli_bounds(mu[None, :],
                                                       threshold[:, None])
    for i, (p, t) in enumerate(pairs):
        scalar = hellinger_sq_bernoulli_bounds(p, t)
        assert type(scalar[0]) is float and type(scalar[1]) is float
        assert (lo[i], hi[i]) == scalar
        if t >= 2.0:
            assert scalar == (-1.0, 2.0)
        for j, (_, t_row) in enumerate(pairs):
            assert (lo_outer[j, i], hi_outer[j, i]) == \
                hellinger_sq_bernoulli_bounds(p, t_row)


@settings(max_examples=500, deadline=None)
@given(PROBS, PROBS, st.floats(1e-6, 1.99))
def test_hellinger_sq_bernoulli_bounds_solve_the_threshold(mu, e, threshold):
    value = hellinger_sq_bernoulli(mu, e)
    assume(abs(value - threshold) > 1e-9)  # away from the boundary
    lo, hi = hellinger_sq_bernoulli_bounds(mu, threshold)
    assert (value >= threshold) == (e <= lo or e >= hi)


def test_tv_distance_cases():
    p = random_distribution(SeededRng(3).generator, 6)
    assert tv_distance(p, p) == 0.0
    one = DiscreteDistribution(np.array([1.0, 0.0]))
    two = DiscreteDistribution(np.array([0.0, 1.0]))
    assert tv_distance(one, two) == pytest.approx(1.0)
    uniform4 = DiscreteDistribution.uniform(4)
    heavy = DiscreteDistribution(np.array([0.2, 0.2, 0.2, 0.4]))
    # direct l1: 3*|0.25-0.2| + |0.25-0.4| = 0.3
    assert tv_distance(uniform4, heavy) == pytest.approx(0.15, abs=1e-14)
    with pytest.raises(ValueError):
        tv_distance(uniform4, one)


def test_hellinger_sq_cases():
    gen = SeededRng(5).generator
    p = random_distribution(gen, 8)
    assert hellinger_sq(p, p) == 0.0
    ber_p = DiscreteDistribution(np.array([0.25, 0.75]))
    ber_q = DiscreteDistribution(np.array([0.16, 0.84]))
    assert hellinger_sq(ber_p, ber_q) == \
        pytest.approx(hellinger_sq_bernoulli(0.25, 0.16), abs=1e-15)


def test_tv_hellinger_sandwich():
    gen = SeededRng(7).generator
    for _ in range(200):
        n = int(gen.integers(2, 50))
        p = random_distribution(gen, n)
        q = random_distribution(gen, n)
        h2 = hellinger_sq(p, q)
        tv = tv_distance(p, q)
        assert 0.5 * h2 <= tv + 1e-10, f"lower sandwich broke: h2={h2} tv={tv}"
        assert tv <= math.sqrt(h2) + 1e-10, f"upper sandwich broke: h2={h2} tv={tv}"


def test_kl_divergence_cases():
    p = DiscreteDistribution(np.array([1.0, 0.0]))
    coin = DiscreteDistribution(np.array([0.5, 0.5]))
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(p, coin) == pytest.approx(math.log(2.0))
    assert kl_divergence(coin, p) == math.inf


def test_kl_dominates_hellinger():
    gen = SeededRng(9).generator
    for _ in range(200):
        n = int(gen.integers(2, 30))
        p = random_distribution(gen, n)
        q = random_distribution(gen, n)
        assert kl_divergence(p, q) >= hellinger_sq(p, q) - 1e-12


def test_almost_triangle_and_perturbation_bounds():
    gen = SeededRng(13).generator
    abc = gen.uniform(-10.0, 10.0, size=(300, 3))
    a, b, c = abc[:, 0], abc[:, 1], abc[:, 2]
    assert ((a - c) ** 2 <= 2 * (a - b) ** 2 + 2 * (b - c) ** 2 + 1e-10).all()
    pq = gen.uniform(0.0, 1.0, size=(300, 4))
    p, q, p2, q2 = pq[:, 0], pq[:, 1], pq[:, 2], pq[:, 3]
    lhs = (np.sqrt(p) - np.sqrt(q)) ** 2
    rhs = 3.0 * ((np.sqrt(p2) - np.sqrt(q2)) ** 2 + np.abs(p2 - p) + np.abs(q2 - q))
    assert (lhs <= rhs + 1e-10).all()


def test_eliminate_large_witness_empty_tail():
    value = hellinger_sq_bernoulli(0.8, 0.01)
    got = eliminate_large_witness(p_s=0.8, q_s=0.01, p_t=0.0, q_t=0.0, delta=0.5)
    assert got.choice == "S_minus_T"
    assert got.value == pytest.approx(value)


def test_eliminate_large_witness_tight_tail():
    """Tail masses at their constraint ceilings still leave delta/120."""
    delta = 0.5
    p_t, q_t = delta / 10.0, delta / 20.0
    got = eliminate_large_witness(p_s=0.9, q_s=0.05, p_t=p_t, q_t=q_t, delta=delta)
    assert got.value >= delta / 120.0
    complement_value = hellinger_sq_bernoulli(1.0 - p_t, 1.0 - q_t)
    assert complement_value >= (math.sqrt(0.1) - math.sqrt(0.05)) ** 2 * delta * 0.99
    assert complement_value >= delta / 120.0


def test_eliminate_large_witness_random_instances():
    gen = SeededRng(23).generator
    accepted = 0
    while accepted < 300:
        delta = float(gen.uniform(0.05, 1.5))
        p_s, q_s = float(gen.random()), float(gen.random())
        if hellinger_sq_bernoulli(p_s, q_s) < delta:
            continue
        p_t = float(gen.uniform(0.0, p_s))
        q_t = float(gen.uniform(0.0, min(q_s, delta / 20.0)))
        got = eliminate_large_witness(p_s, q_s, p_t, q_t, delta)
        assert got.value >= delta / 120.0, \
            f"witness too small: {got} at delta={delta}"
        assert got.choice in ("S_minus_T", "complement_of_T")
        accepted += 1


def test_eliminate_large_witness_precondition_errors():
    with pytest.raises(ValueError):
        eliminate_large_witness(0.5, 0.5, 0.0, 0.0, delta=0.5)  # H2 = 0 < delta
    with pytest.raises(ValueError):
        eliminate_large_witness(0.9, 0.01, 0.0, 0.2, delta=0.5)  # q_t > delta/20


def test_discrete_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([1.1, -0.1]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0.5], [0.5]]))
    uniform = DiscreteDistribution.uniform(7)
    assert uniform.n == 7
    assert uniform.probs.sum() == pytest.approx(1.0)


def test_poisson_mixture_validation():
    with pytest.raises(ValueError):
        PoissonMixture(np.array([]))
    with pytest.raises(ValueError):
        PoissonMixture(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        PoissonMixture(np.array([np.inf]))
    assert PoissonMixture(np.array([0.0, 3.0])).k == 2


# (parameter, call with the value, a float or bool to refuse, an np.int64 to
# accept); every refused value was truncated or stored as given before the
# integer rule.
INTEGER_PARAMETERS = [
    ("m", lambda v: UniformityTestConfig(64, v, 0.1), 2.5, np.int64(2)),
    ("m", lambda v: UniformityTestConfig(64, v, 0.1), 6.5, np.int64(6)),
    ("k", lambda v: SymbolStream([1, 2, 3]).take(v), 2.7, np.int64(2)),
    ("s", lambda v: poisson_split(np.array([3, 1]), v, SeededRng(0)), 2.9,
     np.int64(2)),
    ("n", lambda v: derive_full_params(v, 2.0, 0.05), 64.9, np.int64(64)),
    ("m", lambda v: collision_count_baseline(64, v, SymbolStream(np.arange(1, 8))),
     6.9, np.int64(6)),
    ("seed", SeededRng, 2.7, np.int64(2)),
    ("index", lambda v: SeededRng(1).child(v), 1.9, np.int64(1)),
    ("n", lambda v: poissonize(np.array([1, 2, 3]), v), 3.9, np.int64(3)),
    ("n", lambda v: tracker_new(v, 0.2, 1), 64.7, np.int64(64)),
    ("m", lambda v: IntervalTesterParams(mu=1.0, tau=0.1, x_max=4, m=v), 2.5,
     np.int64(2)),
    ("r", lambda v: FullTesterParams(n=16, mu=1.0, tau=0.1, s=4, r=v, x_max=4),
     2.5, np.int64(2)),
    ("x_max", lambda v: best_interval(1.0, MIX_5_15, v), 3.9, np.int64(3)),
    ("n", DiscreteDistribution.uniform, 2.5, np.int64(2)),
    ("r", lambda v: derive_full_params(64, 2.0, 0.05, r=v), True, np.int64(4)),
]


@pytest.mark.parametrize("name, call, bad, good", INTEGER_PARAMETERS)
def test_integer_parameters_refuse_floats_and_bools(name, call, bad, good):
    """A float or bool where an integer belongs is refused, naming the
    parameter, not truncated; a numpy integer is accepted."""
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer, got {bad!r}"):
        call(bad)
    call(good)


def test_check_integers_shape_dtype_and_bounds():
    assert check_integers([], "symbol", 1, 3).dtype == np.int64
    assert check_integers(np.array([3, 1], dtype=np.uint8), "symbol", 1, 3).tolist() == [3, 1]
    for values, message in [([[1]], "symbol array must be 1-D"),
                            ([1.0], "symbol array must hold integers"),
                            ([True], "symbol array must hold integers"),
                            ([0, 2], "symbol out of range 1..3"),
                            ([4], "symbol out of range 1..3")]:
        with pytest.raises(ValueError, match=message):
            check_integers(values, "symbol", 1, 3)
    with pytest.raises(ValueError, match="count must be >= 0, got -2"):
        check_integers([4, -2], "count", 0)
