"""Brute-force oracles: slow, independent ways to compute what the testers assume.

Nothing here is used by the testers at runtime.  These functions exist so
tests can check structural claims (interval structure of likelihood-ratio
threshold sets, best-interval strength, distance values) against exhaustive
or extended-precision computation.

Summation uses math.fsum (compensated, exactly rounded); truncation points
carry an explicit certificate of the mass left behind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import (PoissonMixture, StructureViolationError, check_integer,
                        check_real, hellinger_sq_bernoulli, log_pmf_ratio,
                        mixture_pmf, poisson_log_pmf)

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


def _pmf_tables(mu: float, mix: PoissonMixture, cutoff: int
                ) -> tuple[list[float], list[float]]:
    poi = [math.exp(poisson_log_pmf(mu, x)) for x in range(cutoff + 1)]
    mixture = [mixture_pmf(mix, x) for x in range(cutoff + 1)]
    return poi, mixture


def _certified_tables(mu: float, mix: PoissonMixture, tol: float
                      ) -> tuple[list[float], list[float], TruncationWindow]:
    """Both PMF tables up to a cutoff that leaves at most tol of mass out.

    Conservative Poisson upper tail: P[Z >= 2*rate + 6*ln(1/d)] <= d.
    Cutting at the worst rate with d = tol/4 leaves each distribution at
    most tol/4 of mass beyond the window; the mass the tables miss is
    measured, and above tol raises StructureViolationError.  A bool or a
    string mu or tol is refused, not cast.
    """
    mu = check_real(mu, "mu", ge=0)
    tol = check_real(tol, "tol", gt=0, lt=1)
    worst = max([mu] + mix.rates.tolist())
    cutoff = int(math.ceil(2.0 * worst + 6.0 * math.log(4.0 / tol))) + 1
    poi, mixture = _pmf_tables(mu, mix, cutoff)
    tail = max(0.0, 1.0 - math.fsum(poi)) + max(0.0, 1.0 - math.fsum(mixture))
    if tail > tol:
        raise StructureViolationError(
            f"truncation certificate failed: leftover mass {tail} > tol {tol}")
    return poi, mixture, TruncationWindow(cutoff=cutoff, tail_bound=tail)


def exact_hellinger_poisson_vs_mixture(mu: float, mix: PoissonMixture,
                                       tol: float = 1e-9
                                       ) -> tuple[float, TruncationWindow]:
    """Squared Hellinger distance between Poi(mu) and the mixture, to within tol.

    The integrand tail is bounded by the leftover masses, so the certificate
    window guarantees |error| <= tail_bound <= tol.
    """
    poi, mixture, window = _certified_tables(mu, mix, tol)
    value = math.fsum((math.sqrt(p) - math.sqrt(q)) ** 2
                      for p, q in zip(poi, mixture))
    return min(value, 2.0), window


def exact_tv_poisson_vs_mixture(mu: float, mix: PoissonMixture,
                                tol: float = 1e-9
                                ) -> tuple[float, TruncationWindow]:
    """Total variation distance between Poi(mu) and the mixture, to within tol."""
    poi, mixture, window = _certified_tables(mu, mix, tol)
    return min(0.5 * math.fsum(abs(p - q) for p, q in zip(poi, mixture)), 1.0), window


def best_interval(mu: float, mix: PoissonMixture, x_max: int) -> BestInterval:
    """Exhaustive search for the interval maximizing the Bernoulli-Hellinger gap.

    Scores every 0 <= a <= b <= x_max from prefix sums of the two PMF
    tables, a block of rows a at a time, so memory stays O(x_max) however
    large x_max is.  Within a block argmax takes the first maximum in (a, b)
    order, and a later block replaces the best only when strictly greater,
    so ties resolve to the lexicographically first (a, b).  A bool or a
    string mu is refused, not cast.
    """
    mu = check_real(mu, "mu", ge=0)
    x_max = check_integer(x_max, "x_max", 0)
    poi, mixture = _pmf_tables(mu, mix, x_max)
    poi_prefix = [0.0]
    mix_prefix = [0.0]
    for p, q in zip(poi, mixture):
        poi_prefix.append(poi_prefix[-1] + p)
        mix_prefix.append(mix_prefix[-1] + q)
    poi_prefix = np.array(poi_prefix)
    mix_prefix = np.array(mix_prefix)
    rows = max(1, (1 << 16) // (x_max + 1))  # at most about 64k cells per block
    best = None
    for a0 in range(0, x_max + 1, rows):
        a = np.arange(a0, min(a0 + rows, x_max + 1))[:, None]
        b = np.arange(a0, x_max + 1)  # no b < a0 can pair with these rows
        p_mass = np.clip(poi_prefix[b + 1] - poi_prefix[a], 0.0, 1.0)
        q_mass = np.clip(mix_prefix[b + 1] - mix_prefix[a], 0.0, 1.0)
        values = np.where(b >= a, hellinger_sq_bernoulli(p_mass, q_mass), -np.inf)
        row, col = np.unravel_index(int(np.argmax(values)), values.shape)
        if best is None or values[row, col] > best.value:
            best = BestInterval(a=a0 + int(row), b=a0 + int(col), value=float(values[row, col]),
                                poisson_mass=float(p_mass[row, col]),
                                mixture_mass=float(q_mass[row, col]))
    return best


def threshold_set_structure(mu: float, mix: PoissonMixture, r: float,
                            x_max: int) -> ThresholdSetStructure:
    """Classify {x : log_pmf_ratio(mix, mu, x) >= log r} as one of four shapes.

    Discrete convexity of the ratio forces the set to be an integer interval
    or the complement of one; more than two membership flips raises
    StructureViolationError (the falsification hook).  The scan starts at
    x_max and extends itself until the tail behavior is certified by the
    ratio's limit and slope sign, so the classification covers all of the
    nonnegative integers, not just the scanned window.  A bool or a string
    mu or r is refused, not cast.
    """
    mu = check_real(mu, "mu", gt=0)
    r = check_real(r, "r", ge=0)
    x_max = check_integer(x_max, "x_max", 1)
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
