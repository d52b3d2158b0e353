"""Brute-force oracles: pinned constants, structure certification, fixtures.

The reference pair throughout is Poi(10) against the {5, 15} mixture; its
distances are re-derived here at 50 decimal digits so the pinned float
constants are checked against an independent computation, not just replayed.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from unifwatch import (BestInterval, DiscreteDistribution, PoissonMixture,
                       SeededRng, StructureViolationError,
                       ThresholdSetStructure, best_interval,
                       estimate_opt_samples, exact_hellinger_poisson_vs_mixture,
                       exact_tv_poisson_vs_mixture, hellinger_sq_bernoulli,
                       threshold_set_structure)
from unifwatch.oracle import _pmf_tables

from reference import (brute_force_tv_product, calibrate_good_interval_constant,
                       load_pinned_calibration, mc_tv_lower_bound, pmf_ratio,
                       poisson_interval_mass, tv_distance)

MIX_5_15 = PoissonMixture([5.0, 15.0])

# frozen oracle outputs for (mu = 10, mix = {5, 15})
EPS_STAR = 0.29409112421617684
TV_STAR = 0.43859405985416555
BEST = BestInterval(a=6, b=14, value=0.2113744324934484,
                    poisson_mass=0.8494555641863079,
                    mixture_mass=0.42333718555103417)


def mp_distances(mu, rates, upto=400):
    """Extended-precision H^2 and TV for Poi(mu) vs a uniform Poisson mixture."""
    with mp.workdps(50):
        h_terms, tv_terms = [], []
        for x in range(upto + 1):
            p = mp.e ** (-mu) * mp.mpf(mu) ** x / mp.factorial(x)
            q = mp.fsum(mp.e ** (-lam) * mp.mpf(lam) ** x / mp.factorial(x)
                        for lam in rates) / len(rates)
            h_terms.append((mp.sqrt(p) - mp.sqrt(q)) ** 2)
            tv_terms.append(abs(p - q))
        return float(mp.fsum(h_terms)), float(mp.fsum(tv_terms) / 2)


def test_hellinger_zero_on_identical_pair():
    value, window = exact_hellinger_poisson_vs_mixture(5.0, PoissonMixture([5.0]))
    assert value == pytest.approx(0.0, abs=1e-9)
    assert window.tail_bound <= 1e-9


def test_tv_zero_on_identical_pair():
    value, _ = exact_tv_poisson_vs_mixture(5.0, PoissonMixture([5.0]))
    assert value == pytest.approx(0.0, abs=1e-9)


def test_reference_distances_match_extended_precision():
    mp_h, mp_tv = mp_distances(10, [5, 15])
    value, _ = exact_hellinger_poisson_vs_mixture(10.0, MIX_5_15, 1e-12)
    assert value == pytest.approx(EPS_STAR, abs=1e-15)
    assert value == pytest.approx(mp_h, abs=1e-12)
    tv, _ = exact_tv_poisson_vs_mixture(10.0, MIX_5_15, 1e-12)
    assert tv == pytest.approx(TV_STAR, abs=1e-15)
    assert tv == pytest.approx(mp_tv, abs=1e-12)


def test_reference_pair_satisfies_tv_hellinger_sandwich():
    assert EPS_STAR / 2 <= TV_STAR <= math.sqrt(EPS_STAR)


def test_truncation_window_certificate():
    loose_value, loose = exact_hellinger_poisson_vs_mixture(10.0, MIX_5_15, 1e-4)
    tight_value, tight = exact_hellinger_poisson_vs_mixture(10.0, MIX_5_15, 1e-12)
    assert tight.cutoff > loose.cutoff
    assert loose.tail_bound <= 1e-4 and tight.tail_bound <= 1e-12
    assert loose_value == pytest.approx(tight_value, abs=1e-4)
    with pytest.raises(ValueError):
        exact_hellinger_poisson_vs_mixture(10.0, MIX_5_15, tol=0.0)


def test_best_interval_reference_pin():
    found = best_interval(10.0, MIX_5_15, x_max=40)
    assert (found.a, found.b) == (BEST.a, BEST.b) == (6, 14)
    assert found.value == pytest.approx(BEST.value, rel=1e-12)
    assert found.poisson_mass == pytest.approx(BEST.poisson_mass, rel=1e-12)
    assert found.mixture_mass == pytest.approx(BEST.mixture_mass, rel=1e-12)


def test_best_interval_beats_neighbors():
    def gap(a, b):
        p = poisson_interval_mass(10.0, a, b).mass
        q = sum(poisson_interval_mass(lam, a, b).mass
                for lam in (5.0, 15.0)) / 2
        return hellinger_sq_bernoulli(p, min(q, 1.0))

    found = best_interval(10.0, MIX_5_15, x_max=40)
    for a, b in [(5, 14), (7, 14), (6, 13), (6, 15), (0, 40)]:
        assert found.value >= gap(a, b) - 1e-15


def test_best_interval_validation():
    with pytest.raises(ValueError):
        best_interval(10.0, MIX_5_15, x_max=-1)


def test_best_interval_positive_iff_separated():
    identical = best_interval(5.0, PoissonMixture([5.0]), x_max=30)
    assert identical.value <= 1e-12
    separated = best_interval(10.0, MIX_5_15, x_max=40)
    assert separated.value > 1e-12


def _one_array_best_interval(mu, mix, x_max):
    """best_interval scored as one O(x_max^2) array of every a <= b."""
    poi, mixture = _pmf_tables(mu, mix, x_max)
    poi_prefix, mix_prefix = [0.0], [0.0]
    for p, q in zip(poi, mixture):
        poi_prefix.append(poi_prefix[-1] + p)
        mix_prefix.append(mix_prefix[-1] + q)
    poi_prefix, mix_prefix = np.array(poi_prefix), np.array(mix_prefix)
    a, b = np.triu_indices(x_max + 1)
    p_mass = np.clip(poi_prefix[b + 1] - poi_prefix[a], 0.0, 1.0)
    q_mass = np.clip(mix_prefix[b + 1] - mix_prefix[a], 0.0, 1.0)
    values = hellinger_sq_bernoulli(p_mass, q_mass)
    best = int(np.argmax(values))
    return BestInterval(a=int(a[best]), b=int(b[best]), value=float(values[best]),
                        poisson_mass=float(p_mass[best]),
                        mixture_mass=float(q_mass[best]))


@pytest.mark.parametrize("mu, rates, x_max", [
    (10.0, [5.0, 15.0], 40), (5.0, [5.0], 30), (5.0, [5.0], 300),
    (0.0, [0.0], 0), (2.0, [0.5, 9.0], 1), (3.0, [1.0, 2.0, 20.0], 257),
    (40.0, [10.0, 80.0], 700)])
def test_best_interval_blocks_match_one_array(mu, rates, x_max):
    """Blocks of rows give the one-array result, ties included: Poi(5)
    against itself ties at 0 everywhere, and x_max = 257 and above spans
    more than one block."""
    mix = PoissonMixture(rates)
    assert best_interval(mu, mix, x_max) == _one_array_best_interval(mu, mix, x_max)


def test_best_interval_memory_stays_linear_in_x_max():
    """x_max = 2,000 has 2.0M cells (15 MiB as one float64 array, and
    153 MiB when scored as one array); blocks of rows peak under 16 MiB."""
    tracemalloc.start()
    try:
        found = best_interval(10.0, MIX_5_15, x_max=2_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (found.a, found.b) == (BEST.a, BEST.b)
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def structure_member(structure: ThresholdSetStructure, x: int) -> bool:
    if structure.kind == "full":
        return True
    if structure.kind == "empty":
        return False
    inside = structure.a <= x and (structure.b is None or x <= structure.b)
    return inside if structure.kind == "interval" else not inside


def test_threshold_set_reference_gap():
    """{ratio >= 1} for the reference pair excludes exactly [7, 14]."""
    structure = threshold_set_structure(10.0, MIX_5_15, r=1.0, x_max=40)
    assert structure == ThresholdSetStructure(kind="complement_interval", a=7, b=14)
    for x in range(30):
        assert structure_member(structure, x) == (pmf_ratio(MIX_5_15, 10.0, x) >= 1.0)


def test_threshold_set_boundary_kinds():
    assert threshold_set_structure(10.0, MIX_5_15, r=0.0, x_max=20).kind == "full"
    # the ratio dips to ~0.267 at x = 10 and diverges in both directions
    assert threshold_set_structure(10.0, MIX_5_15, r=1e-12, x_max=20).kind == "full"
    suffix = threshold_set_structure(10.0, MIX_5_15, r=1e9, x_max=20)
    assert suffix.kind == "complement_interval"
    assert suffix.a == 0  # excluded gap is a prefix, so the set is a suffix


def test_threshold_set_bounded_mixture_prefix():
    # mix {5} below mu = 10: ratio(x) = e^5 * (1/2)^x, strictly decreasing
    mix = PoissonMixture([5.0])
    structure = threshold_set_structure(10.0, mix, r=1.0, x_max=30)
    assert structure == ThresholdSetStructure(kind="interval", a=0, b=7)
    assert threshold_set_structure(10.0, mix, r=math.exp(5) * 2, x_max=30).kind == "empty"
    # r below the limit 0 is impossible; far below ratio(30) gives a long prefix
    deep = threshold_set_structure(10.0, mix, r=1e-300, x_max=30)
    assert deep.kind == "interval" and deep.a == 0 and deep.b > 900


def test_threshold_set_constant_ratio():
    mix = PoissonMixture([10.0, 10.0])
    assert threshold_set_structure(10.0, mix, r=1.0, x_max=20).kind == "full"
    assert threshold_set_structure(10.0, mix, r=1.0 + 1e-9, x_max=20).kind == "empty"


def test_threshold_set_validation():
    with pytest.raises(ValueError):
        threshold_set_structure(0.0, MIX_5_15, r=1.0, x_max=20)
    with pytest.raises(ValueError):
        threshold_set_structure(10.0, MIX_5_15, r=-1.0, x_max=20)
    with pytest.raises(ValueError):
        threshold_set_structure(10.0, MIX_5_15, r=1.0, x_max=0)


def test_threshold_set_random_instances_always_structured():
    """300 random (mu, mix, r): classification never sees a third flip,
    and the returned shape reproduces direct membership on a window."""
    gen = SeededRng(70).generator
    kinds = set()
    for trial in range(300):
        mu = float(gen.uniform(0.5, 20.0))
        k = int(gen.integers(1, 5))
        rates = np.round(gen.uniform(0.0, 30.0, size=k), 6)
        mix = PoissonMixture(rates)
        r = float(math.exp(gen.uniform(-6.0, 6.0)))
        structure = threshold_set_structure(mu, mix, r, x_max=40)
        kinds.add(structure.kind)
        for x in range(0, 41, 3):
            expected = pmf_ratio(mix, mu, x) >= r
            assert structure_member(structure, x) == expected, \
                f"trial {trial}: x={x} mu={mu} rates={rates} r={r}"
    assert {"interval", "complement_interval", "empty", "full"} >= kinds
    assert len(kinds) >= 3  # the draw must exercise several shapes


def test_calibration_corpus_regenerates_and_holds():
    pinned = load_pinned_calibration()
    corpus = pinned["corpus"]
    regen = calibrate_good_interval_constant(seed=corpus["seed"],
                                             count=corpus["count"])
    assert regen["constant"] == pytest.approx(corpus["constant"], rel=1e-9)
    assert len(regen["instances"]) == corpus["count"] == 40
    constant = corpus["constant"]
    assert constant == pytest.approx(1.49722392418242, rel=1e-9)
    for inst in regen["instances"]:
        eps = inst["hellinger_sq"]
        floor = eps / (constant * math.log(4.0 / eps))
        assert inst["best_value"] >= floor - 1e-12


def test_calibration_reference_block_matches_live_oracle():
    refs = load_pinned_calibration()["references"]
    assert refs["mu"] == 10.0 and refs["rates"] == [5.0, 15.0]
    assert refs["hellinger_sq"] == pytest.approx(EPS_STAR, rel=1e-12)
    assert refs["tv"] == pytest.approx(TV_STAR, rel=1e-12)
    ref_best = refs["best_interval"]
    assert (ref_best["a"], ref_best["b"]) == (6, 14)
    assert ref_best["value"] == pytest.approx(BEST.value, rel=1e-12)


def test_brute_force_tv_product_basics():
    p = DiscreteDistribution(np.array([0.5, 0.5]))
    q = DiscreteDistribution(np.array([0.75, 0.25]))
    assert brute_force_tv_product(p, p, 3) == 0.0
    assert brute_force_tv_product(p, q, 1) == pytest.approx(tv_distance(p, q))
    # hand computation: products (.25,.25,.25,.25) vs (.5625,.1875,.1875,.0625)
    assert brute_force_tv_product(p, q, 2) == pytest.approx(0.3125)
    disjoint = DiscreteDistribution(np.array([1.0, 0.0]))
    other = DiscreteDistribution(np.array([0.0, 1.0]))
    assert brute_force_tv_product(disjoint, other, 4) == pytest.approx(1.0)


def test_brute_force_tv_product_monotone_in_m():
    gen = SeededRng(71).generator
    for _ in range(10):
        p_raw = gen.random(3) + 0.05
        q_raw = gen.random(3) + 0.05
        p = DiscreteDistribution(p_raw / p_raw.sum())
        q = DiscreteDistribution(q_raw / q_raw.sum())
        values = [brute_force_tv_product(p, q, m) for m in range(1, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v <= min(1.0, (i + 1) * values[0] + 1e-12)
                   for i, v in enumerate(values))


def test_brute_force_tv_product_guards():
    p = DiscreteDistribution.uniform(10)
    with pytest.raises(ValueError, match="ceiling"):
        brute_force_tv_product(p, p, 8)
    with pytest.raises(ValueError):
        brute_force_tv_product(p, DiscreteDistribution.uniform(9), 2)
    with pytest.raises(ValueError):
        brute_force_tv_product(p, p, 0)


def test_estimate_opt_samples_reference_and_scaling():
    assert estimate_opt_samples(10.0, MIX_5_15) == 4  # ceil(1/0.294...)
    closer = estimate_opt_samples(10.0, PoissonMixture([8.0, 12.0]))
    assert closer > 4
    with pytest.raises(ValueError, match="indistinguishable"):
        estimate_opt_samples(10.0, PoissonMixture([10.0]))


def test_mc_tv_lower_bound_sanity():
    rng = SeededRng(72)
    same = mc_tv_lower_bound(lambda g: g.normal(), lambda g: g.normal(),
                             trials=10_000, rng=rng)
    assert same <= 0.05
    apart = mc_tv_lower_bound(lambda g: g.random(), lambda g: g.random() + 10.0,
                              trials=1_000, rng=rng)
    assert apart == 1.0
    with pytest.raises(ValueError):
        mc_tv_lower_bound(lambda g: 0.0, lambda g: 0.0, trials=0, rng=rng)


def test_mc_tv_lower_bound_never_exceeds_truth_by_much():
    """Bernoulli statistics with known TV 0.3: the MC bound stays below
    TV plus sampling error."""
    rng = SeededRng(73)
    bound = mc_tv_lower_bound(lambda g: float(g.random() < 0.5),
                              lambda g: float(g.random() < 0.8),
                              trials=20_000, rng=rng)
    assert bound <= 0.3 + 0.02
    assert bound >= 0.3 - 0.02
