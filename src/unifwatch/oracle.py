"""Brute-force oracles: slow, independent ways to compute what the testers assume.

Nothing here is used by the testers at runtime.  These functions exist so
tests can check structural claims (interval structure of likelihood-ratio
threshold sets, best-interval strength, distance values, the full tester's
shared-subset scan) against exhaustive or extended-precision computation.

Summation uses math.fsum (compensated, exactly rounded); truncation points
carry an explicit certificate of the mass left behind.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Callable

import numpy as np

from .distances import (DiscreteDistribution, PoissonMixture,
                        StructureViolationError, hellinger_sq_bernoulli,
                        log_pmf_ratio, mixture_pmf, poisson_log_pmf)
from .full_tester import FullTesterParams, _split_histograms
from .interval_tester import (ACCEPT, REJECT, IntervalWitness, Verdict,
                              interval_mass_matrix, poisson_pmf_table)
from .poisson import SeededRng

BRUTE_FORCE_CEILING = 10_000_000
EXTENSION_CEILING = 1_000_000


@dataclass(frozen=True)
class TruncationWindow:
    """Certificate for a truncated infinite sum: cutoff and mass left out."""

    cutoff: int
    tail_bound: float


@dataclass(frozen=True)
class BestInterval:
    """Strongest single interval separating Poi(mu) from a mixture."""

    a: int
    b: int
    value: float
    poisson_mass: float
    mixture_mass: float


@dataclass(frozen=True)
class ThresholdSetStructure:
    """Shape of {x : mixture(x)/Poi(mu)(x) >= r}.

    kind is one of interval, complement_interval, empty, full.  For interval,
    [a, b] is the set itself (b None means unbounded above); for
    complement_interval, [a, b] is the excluded gap.
    """

    kind: str
    a: int | None = None
    b: int | None = None


def _truncation_cutoff(rates: list[float], tol: float) -> int:
    # Conservative Poisson upper tail: P[Z >= 2*rate + 6*ln(1/d)] <= d.
    # Cutting at the worst rate with d = tol/4 leaves each distribution at
    # most tol/4 of mass beyond the window.
    worst = max(rates)
    return int(math.ceil(2.0 * worst + 6.0 * math.log(4.0 / tol))) + 1


def _pmf_tables(mu: float, mix: PoissonMixture, cutoff: int
                ) -> tuple[list[float], list[float]]:
    poi = [math.exp(poisson_log_pmf(mu, x)) for x in range(cutoff + 1)]
    mixture = [mixture_pmf(mix, x) for x in range(cutoff + 1)]
    return poi, mixture


def _validated(mu: float, tol: float) -> tuple[float, float]:
    mu = float(mu)
    tol = float(tol)
    if not math.isfinite(mu) or mu < 0:
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    return mu, tol


def exact_hellinger_poisson_vs_mixture(mu: float, mix: PoissonMixture,
                                       tol: float = 1e-9
                                       ) -> tuple[float, TruncationWindow]:
    """Squared Hellinger distance between Poi(mu) and the mixture, to within tol.

    The integrand tail is bounded by the leftover masses, so the certificate
    window guarantees |error| <= tail_bound <= tol.
    """
    mu, tol = _validated(mu, tol)
    cutoff = _truncation_cutoff([mu] + mix.rates.tolist(), tol)
    poi, mixture = _pmf_tables(mu, mix, cutoff)
    value = math.fsum((math.sqrt(p) - math.sqrt(q)) ** 2
                      for p, q in zip(poi, mixture))
    tail = max(0.0, 1.0 - math.fsum(poi)) + max(0.0, 1.0 - math.fsum(mixture))
    if tail > tol:
        raise StructureViolationError(
            f"truncation certificate failed: leftover mass {tail} > tol {tol}")
    return min(value, 2.0), TruncationWindow(cutoff=cutoff, tail_bound=tail)


def exact_tv_poisson_vs_mixture(mu: float, mix: PoissonMixture,
                                tol: float = 1e-9
                                ) -> tuple[float, TruncationWindow]:
    """Total variation distance between Poi(mu) and the mixture, to within tol."""
    mu, tol = _validated(mu, tol)
    cutoff = _truncation_cutoff([mu] + mix.rates.tolist(), tol)
    poi, mixture = _pmf_tables(mu, mix, cutoff)
    value = 0.5 * math.fsum(abs(p - q) for p, q in zip(poi, mixture))
    tail = max(0.0, 1.0 - math.fsum(poi)) + max(0.0, 1.0 - math.fsum(mixture))
    if tail > tol:
        raise StructureViolationError(
            f"truncation certificate failed: leftover mass {tail} > tol {tol}")
    return min(value, 1.0), TruncationWindow(cutoff=cutoff, tail_bound=tail)


def best_interval(mu: float, mix: PoissonMixture, x_max: int) -> BestInterval:
    """Exhaustive search for the interval maximizing the Bernoulli-Hellinger gap.

    Scans every 0 <= a <= b <= x_max; ties resolve to the lexicographically
    first (a, b).  O(x_max^2) using prefix sums of the two PMF tables.
    """
    mu, _ = _validated(mu, 1e-9)
    x_max = int(x_max)
    if x_max < 0:
        raise ValueError("x_max must be nonnegative")
    poi, mixture = _pmf_tables(mu, mix, x_max)
    poi_prefix = [0.0]
    mix_prefix = [0.0]
    for p, q in zip(poi, mixture):
        poi_prefix.append(poi_prefix[-1] + p)
        mix_prefix.append(mix_prefix[-1] + q)
    best: BestInterval | None = None
    for a in range(x_max + 1):
        for b in range(a, x_max + 1):
            p_mass = min(max(poi_prefix[b + 1] - poi_prefix[a], 0.0), 1.0)
            q_mass = min(max(mix_prefix[b + 1] - mix_prefix[a], 0.0), 1.0)
            value = float(hellinger_sq_bernoulli(p_mass, q_mass))
            if best is None or value > best.value:
                best = BestInterval(a=a, b=b, value=value,
                                    poisson_mass=p_mass, mixture_mass=q_mass)
    assert best is not None
    return best


def threshold_set_structure(mu: float, mix: PoissonMixture, r: float,
                            x_max: int) -> ThresholdSetStructure:
    """Classify {x : pmf_ratio(mix, mu, x) >= r} as one of four shapes.

    Discrete convexity of the ratio forces the set to be an integer interval
    or the complement of one; more than two membership flips raises
    StructureViolationError (the falsification hook).  The scan starts at
    x_max and extends itself until the tail behavior is certified by the
    ratio's limit and slope sign, so the classification covers all of the
    nonnegative integers, not just the scanned window.
    """
    mu = float(mu)
    r = float(r)
    if not math.isfinite(mu) or mu <= 0:
        raise ValueError(f"mu must be finite and positive, got {mu}")
    if not math.isfinite(r) or r < 0:
        raise ValueError(f"r must be finite and nonnegative, got {r}")
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if r == 0.0:
        return ThresholdSetStructure(kind="full")

    log_r = math.log(r)
    rates = mix.rates.tolist()
    unbounded = any(rate > mu for rate in rates)
    finite_limit = math.inf if unbounded else sum(1 for rate in rates if rate == mu) / mix.k

    log_ratios = [log_pmf_ratio(mix, mu, x) for x in range(x_max + 1)]
    while True:
        end = len(log_ratios) - 1
        member_end = log_ratios[end] >= log_r
        rising = log_ratios[end] >= log_ratios[end - 1]
        if member_end and rising:
            break  # convexity: slopes never decrease, stays a member
        if not unbounded:
            # bounded convex sequences are nonincreasing, so the current
            # state persists unless the limit pulls it below r
            if member_end and finite_limit >= r:
                break
            if not member_end:
                break
        if end * 2 > EXTENSION_CEILING:
            raise ValueError("tail certification exceeded the extension ceiling")
        for x in range(end + 1, end * 2 + 1):
            log_ratios.append(log_pmf_ratio(mix, mu, x))

    members = [lr >= log_r for lr in log_ratios]
    tail = members[-1]
    flips = [i for i in range(1, len(members)) if members[i] != members[i - 1]]
    if len(flips) > 2:
        raise StructureViolationError(
            f"threshold set has {len(flips)} membership flips; "
            "expected an interval or the complement of one")

    if len(flips) == 0:
        return ThresholdSetStructure(kind="full" if tail else "empty")
    if len(flips) == 1:
        if members[0]:
            return ThresholdSetStructure(kind="interval", a=0, b=flips[0] - 1)
        return ThresholdSetStructure(kind="complement_interval", a=0, b=flips[0] - 1)
    first, second = flips
    if members[0]:
        return ThresholdSetStructure(kind="complement_interval",
                                     a=first, b=second - 1)
    return ThresholdSetStructure(kind="interval", a=first, b=second - 1)


def brute_force_tv_product(p: DiscreteDistribution, q: DiscreteDistribution,
                           m: int) -> float:
    """TV distance between m-fold products by enumerating all |domain|^m tuples."""
    if p.n != q.n:
        raise ValueError(f"domain mismatch: {p.n} vs {q.n}")
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    if p.n ** m > BRUTE_FORCE_CEILING:
        raise ValueError(f"{p.n}^{m} tuples exceed the {BRUTE_FORCE_CEILING} ceiling")
    prod_p = p.probs.copy()
    prod_q = q.probs.copy()
    for _ in range(m - 1):
        prod_p = (prod_p[:, None] * p.probs[None, :]).ravel()
        prod_q = (prod_q[:, None] * q.probs[None, :]).ravel()
    return 0.5 * float(np.abs(prod_p - prod_q).sum())


def literal_full_tester(params: FullTesterParams, freq: np.ndarray,
                        rng: SeededRng) -> Verdict:
    """Full tester with a fresh random subset for every (k, interval, repeat).

    The literal per-triple scheme that run_full_tester's shared-prefix scan
    replaces: exponentially more subset draws for the same guarantee, so
    desk scale only.  Same child-RNG layout: child(0) splits the counts,
    child(1) draws every subset.
    """
    hist = _split_histograms(params, freq, rng.child(0))
    width = params.x_max + 1
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    gen = rng.child(1).generator
    evaluated = 0
    for k in range(1, params.n + 1):
        threshold = params.tau / k
        for a in range(width):
            for b in range(a, width):
                for rep in range(params.r):
                    subset = gen.choice(params.n, size=k, replace=False)
                    count = float(hist[subset, a:b + 1].sum())
                    est = min(count / (params.s * k), 1.0)
                    evaluated += 1
                    gap = hellinger_sq_bernoulli(float(mu_mass[a, b]), est)
                    if gap >= threshold:
                        witness = IntervalWitness(
                            a=a, b=b, mu_mass=float(mu_mass[a, b]),
                            est_mass=est, hellinger_sq=float(gap),
                            repeat=rep, subset_size=k)
                        return Verdict(outcome=REJECT, witness=witness,
                                       intervals_evaluated=evaluated)
    return Verdict(outcome=ACCEPT, intervals_evaluated=evaluated)


def estimate_opt_samples(mu: float, mix: PoissonMixture, tol: float = 1e-9) -> int:
    """Proxy for the samples an optimal profile-aware test needs: ceil(1/H^2).

    This is a constant-factor proxy, not the optimum itself; use it for
    budget scaling, never as a ground-truth sample complexity.  Raises on
    (near-)zero distance, where no finite budget works.
    """
    value, _ = exact_hellinger_poisson_vs_mixture(mu, mix, tol)
    if value <= 10.0 * tol:
        raise ValueError(f"distributions are indistinguishable (H^2 = {value:.3g})")
    return int(math.ceil(1.0 / value))


def mc_tv_lower_bound(sample_p: Callable[[np.random.Generator], float],
                      sample_q: Callable[[np.random.Generator], float],
                      trials: int, rng: SeededRng) -> float:
    """Monte Carlo lower bound on TV via the best threshold on a scalar statistic.

    sample_p and sample_q map a generator to one statistic value.  For any
    threshold t, |P[stat >= t] - Q[stat >= t]| lower-bounds the TV distance;
    this sweeps all empirical thresholds and returns the best gap.  Subject
    to O(1/sqrt(trials)) estimation error, which the caller budgets for.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    gen_p = rng.child(0).generator
    gen_q = rng.child(1).generator
    stats_p = np.array([float(sample_p(gen_p)) for _ in range(trials)])
    stats_q = np.array([float(sample_q(gen_q)) for _ in range(trials)])
    thresholds = np.unique(np.concatenate([stats_p, stats_q]))
    # fraction of samples >= t, via descending-sorted search
    p_sorted = np.sort(stats_p)
    q_sorted = np.sort(stats_q)
    p_ge = 1.0 - np.searchsorted(p_sorted, thresholds, side="left") / trials
    q_ge = 1.0 - np.searchsorted(q_sorted, thresholds, side="left") / trials
    return float(np.abs(p_ge - q_ge).max())


def calibrate_good_interval_constant(seed: int, count: int) -> dict:
    """Measure how strong the best interval is relative to the full distance.

    For seeded random (mu, mixture) pairs, records
    c = eps / (best_value * ln(4/eps)) where eps is the exact squared
    Hellinger distance; the corpus maximum is the empirical constant in
    "some interval achieves at least eps / (C * ln(4/eps))".  The pinned
    fixture freezes one run of this so drift is caught by regression.
    """
    gen = SeededRng(seed).generator
    instances = []
    worst = 0.0
    produced = 0
    while produced < count:
        mu = float(gen.uniform(0.5, 25.0))
        k = int(gen.integers(1, 5))
        rates = np.round(gen.uniform(0.0, 35.0, size=k), 6)
        mix = PoissonMixture(rates)
        eps, _ = exact_hellinger_poisson_vs_mixture(mu, mix, 1e-12)
        if eps < 1e-4:
            continue  # skip near-identical pairs; the ratio is 0/0 noise there
        x_max = int(math.ceil(2.0 * max([mu] + rates.tolist()) + 80.0))
        found = best_interval(mu, mix, x_max)
        c = eps / (found.value * math.log(4.0 / eps))
        worst = max(worst, c)
        instances.append({
            "mu": mu, "rates": rates.tolist(), "hellinger_sq": eps,
            "best_a": found.a, "best_b": found.b, "best_value": found.value,
            "constant": c,
        })
        produced += 1
    return {"seed": seed, "count": count, "constant": worst, "instances": instances}


def load_pinned_calibration() -> dict:
    """Pinned oracle corpus: calibration constant plus frozen reference values."""
    payload = resources.files("unifwatch").joinpath("data/calibration.json")
    return json.loads(payload.read_text())
