"""Probability-mass and distance primitives for Poisson and discrete distributions.

Everything here is deterministic math: Poisson PMFs in log space, Poisson
mixtures, interval masses, Bernoulli/vector Hellinger and total-variation
distances, and the witness-shrinking helper used to turn a large
distinguishing set into an interval-friendly one.

All PMF evaluation goes through natural-log space and exponentiates last, so
rates up to ~1e6 and counts up to a few hundred stay finite.  Log-factorials
come from the C library lgamma (~1e-15 relative error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Validation slack for quantities that must be probabilities.
PROB_SLACK = 1e-12


class StructureViolationError(RuntimeError):
    """A structural guarantee that should hold mathematically was violated.

    Raised by falsification hooks (threshold-set classification, witness
    shrinking).  Seeing this exception means either a numerical problem or a
    genuine counterexample to the structure the testers rely on.
    """


@dataclass(frozen=True)
class DiscreteDistribution:
    """Explicit distribution over symbols 1..n, ground truth for simulation.

    probs[i] is the mass of symbol i+1.  Entries must be nonnegative and sum
    to 1 within 1e-12 absolute; entries in [-1e-12, 0) are stored as 0.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a nonempty 1-D array")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite")
        if probs.min() < -PROB_SLACK:
            raise ValueError(f"negative probability {probs.min()}")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_SLACK:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return int(self.probs.size)

    @classmethod
    def uniform(cls, n: int) -> "DiscreteDistribution":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(np.full(n, 1.0 / n))


@dataclass(frozen=True)
class PoissonMixture:
    """Uniform mixture of Poisson distributions: mean of Poi(rate) components."""

    rates: np.ndarray

    def __post_init__(self):
        rates = np.asarray(self.rates, dtype=np.float64)
        if rates.ndim != 1 or rates.size < 1:
            raise ValueError("rates must be a nonempty 1-D array")
        if not np.all(np.isfinite(rates)) or rates.min() < 0:
            raise ValueError("rates must be finite and nonnegative")
        object.__setattr__(self, "rates", rates)

    @property
    def k(self) -> int:
        return int(self.rates.size)


@dataclass(frozen=True)
class IntervalMass:
    """Mass a distribution places on the integer interval [a, b]."""

    a: int
    b: int
    mass: float


def _check_count(x) -> int:
    if isinstance(x, (bool, np.bool_)):
        raise ValueError("count must be an integer, not bool")
    if not isinstance(x, (int, np.integer)):
        raise ValueError(f"count must be an integer, got {type(x).__name__}")
    x = int(x)
    if x < 0:
        raise ValueError(f"count must be nonnegative, got {x}")
    return x


def _check_rate(rate: float) -> float:
    rate = float(rate)
    if not math.isfinite(rate) or rate < 0:
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
    return rate


def poisson_log_pmf(rate: float, x: int) -> float:
    """Natural log of the Poi(rate) PMF at x.

    rate = 0 is the point mass at 0: returns 0.0 at x = 0 and -inf elsewhere.
    """
    rate = _check_rate(rate)
    x = _check_count(x)
    if rate == 0.0:
        return 0.0 if x == 0 else -math.inf
    return -rate + x * math.log(rate) - math.lgamma(x + 1)


def poisson_pmf(rate: float, x: int) -> float:
    return math.exp(poisson_log_pmf(rate, x))


def mixture_pmf(mix: PoissonMixture, x: int) -> float:
    """PMF of the uniform mixture at x: mean of component PMFs.

    Each component is evaluated via poisson_log_pmf then exponentiated;
    log-PMFs are <= 0 so the exponentials never overflow.
    """
    x = _check_count(x)
    terms = [math.exp(poisson_log_pmf(r, x)) for r in mix.rates.tolist()]
    return math.fsum(terms) / mix.k


def log_pmf_ratio(mix: PoissonMixture, mu: float, x: int) -> float:
    """log(mixture_pmf(mix, x) / Poi(mu)(x)), stable for large exponents.

    Common log terms are factored out: each component contributes
    exp(mu - rate + x*(log rate - log mu)).  Returns -inf when the mixture
    has zero mass at x.  Signals if mu = 0 and x > 0 (zero denominator).
    """
    mu = _check_rate(mu)
    x = _check_count(x)
    if mu == 0.0:
        if x > 0:
            raise ValueError("pmf ratio undefined: Poi(0) has zero mass at x > 0")
        # denominator is 1 at x = 0
        return math.log(mixture_pmf(mix, 0)) if mixture_pmf(mix, 0) > 0 else -math.inf
    log_mu = math.log(mu)
    exponents = []
    for rate in mix.rates.tolist():
        if rate == 0.0:
            # point mass at 0: ratio term is e^mu at x = 0, zero elsewhere
            if x == 0:
                exponents.append(mu)
            continue
        exponents.append(mu - rate + x * (math.log(rate) - log_mu))
    if not exponents:
        return -math.inf
    m = max(exponents)
    return m + math.log(math.fsum(math.exp(e - m) for e in exponents)) - math.log(mix.k)


def pmf_ratio(mix: PoissonMixture, mu: float, x: int) -> float:
    """mixture_pmf(mix, x) / Poi(mu)(x).

    Overflows to +inf only when the true ratio exceeds float range; use
    log_pmf_ratio when values that large are possible.
    """
    lr = log_pmf_ratio(mix, mu, x)
    if lr > 709.0:
        return math.inf
    return math.exp(lr)


def poisson_interval_mass(mu: float, a: int, b: int) -> IntervalMass:
    """Mass Poi(mu) places on [a, b], summed directly in increasing x."""
    mu = _check_rate(mu)
    a = _check_count(a)
    b = _check_count(b)
    if a > b:
        raise ValueError(f"empty interval: a={a} > b={b}")
    terms = [math.exp(poisson_log_pmf(mu, x)) for x in range(a, b + 1)]
    mass = min(max(math.fsum(terms), 0.0), 1.0)
    return IntervalMass(a=a, b=b, mass=mass)


def hellinger_sq_bernoulli(p, q):
    """Squared Hellinger distance between Bernoulli(p) and Bernoulli(q).

    (sqrt(p)-sqrt(q))^2 + (sqrt(1-p)-sqrt(1-q))^2.  Accepts scalars or numpy
    arrays; inputs outside [0, 1] beyond 1e-12 slack are rejected.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    q_arr = np.asarray(q, dtype=np.float64)
    for name, arr in (("p", p_arr), ("q", q_arr)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} must be finite")
        if np.any(arr < -PROB_SLACK) or np.any(arr > 1.0 + PROB_SLACK):
            raise ValueError(f"{name} must lie in [0, 1] (slack {PROB_SLACK})")
    p_arr = np.clip(p_arr, 0.0, 1.0)
    q_arr = np.clip(q_arr, 0.0, 1.0)
    out = (np.sqrt(p_arr) - np.sqrt(q_arr)) ** 2 + (np.sqrt(1.0 - p_arr) - np.sqrt(1.0 - q_arr)) ** 2
    if np.isscalar(p) and np.isscalar(q):
        return float(out)
    return out


def hellinger_sq_bernoulli_bounds(mu, threshold):
    """Solve hellinger_sq_bernoulli(mu, e) >= threshold for e in [0, 1].

    The solution set is [0, lo] union [hi, 1].  Returns (lo, hi) with
    sentinels lo = -1.0 when no lower solution exists and hi = 2.0 when no
    upper solution exists; threshold >= 2 always gets both sentinels.
    Closed form: with c = 1 - threshold/2,
    sqrt(e) = sqrt(mu)*c +/- sqrt(1-mu)*sqrt(1-c^2).

    mu and threshold broadcast against each other: scalars give a pair of
    floats, arrays a pair of arrays of the broadcast shape, elementwise
    equal to the scalar results.
    """
    mu_arr = np.asarray(mu, dtype=np.float64)
    t = np.asarray(threshold, dtype=np.float64)
    if not np.all((mu_arr >= 0.0) & (mu_arr <= 1.0)):
        raise ValueError("mu must be a probability")
    if not np.all(t > 0.0):
        raise ValueError("threshold must be positive")
    c = 1.0 - t / 2.0
    root_a = np.sqrt(mu_arr)
    root_b = np.sqrt(1.0 - mu_arr)
    spread = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    reachable = t < 2.0
    u_lo = root_a * c - root_b * spread
    lo = np.where((u_lo >= 0.0) & reachable, u_lo * u_lo, -1.0)
    # u_hi <= 1 by Cauchy-Schwarz; no upper solution only when even e = 1
    # falls short, i.e. threshold > 2 - 2*sqrt(mu)  <=>  c < sqrt(mu).
    u_hi = root_a * c + root_b * spread
    hi = np.where((c >= root_a) & reachable, u_hi * u_hi, 2.0)
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def _check_same_domain(p: DiscreteDistribution, q: DiscreteDistribution):
    if p.n != q.n:
        raise ValueError(f"domain mismatch: {p.n} vs {q.n}")


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance: half the L1 distance between mass vectors."""
    _check_same_domain(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def hellinger_sq(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Squared Hellinger distance: sum of (sqrt(p_i) - sqrt(q_i))^2."""
    _check_same_domain(p, q)
    diffs = np.sqrt(np.clip(p.probs, 0.0, None)) - np.sqrt(np.clip(q.probs, 0.0, None))
    return float((diffs * diffs).sum())


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """KL(p || q) in nats; +inf when p puts mass where q has none; 0*log 0 = 0."""
    _check_same_domain(p, q)
    support = p.probs > 0.0
    if np.any(q.probs[support] == 0.0):
        return math.inf
    ps = p.probs[support]
    qs = q.probs[support]
    return float(np.sum(ps * np.log(ps / qs)))


@dataclass(frozen=True)
class EliminateWitness:
    """Outcome of eliminate_large_witness: which set to use and its value."""

    choice: str  # "S_minus_T" or "complement_of_T"
    value: float


def eliminate_large_witness(p_s: float, q_s: float, p_t: float, q_t: float,
                            delta: float) -> EliminateWitness:
    """Shrink a distinguishing set S by removing a small-under-q tail T.

    Inputs are the masses of S and T under the two distributions, where the
    masses of S minus T are taken to be p_s - p_t and q_s - q_t (clamped at
    zero).  Requires hellinger_sq_bernoulli(p_s, q_s) >= delta and
    q_t <= delta/20.  One of S minus T or the complement of T is guaranteed
    to retain Bernoulli-Hellinger value >= delta/120; returns whichever
    candidate achieves it (the larger of the two; ties prefer S minus T).

    Raises StructureViolationError if neither candidate clears delta/120,
    which would falsify the guarantee this relies on.
    """
    for name, v in (("p_s", p_s), ("q_s", q_s), ("p_t", p_t), ("q_t", q_t)):
        if not math.isfinite(v) or v < -PROB_SLACK or v > 1.0 + PROB_SLACK:
            raise ValueError(f"{name} must be a probability, got {v}")
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must lie in (0, 2), got {delta}")
    base = hellinger_sq_bernoulli(p_s, q_s)
    if base < delta - PROB_SLACK:
        raise ValueError(f"precondition failed: hellinger value {base} < delta {delta}")
    if q_t > delta / 20.0 + PROB_SLACK:
        raise ValueError(f"precondition failed: q_t {q_t} > delta/20 {delta / 20.0}")
    minus_val = hellinger_sq_bernoulli(max(p_s - p_t, 0.0), max(q_s - q_t, 0.0))
    comp_val = hellinger_sq_bernoulli(min(max(1.0 - p_t, 0.0), 1.0),
                                      min(max(1.0 - q_t, 0.0), 1.0))
    floor = delta / 120.0
    if minus_val >= comp_val:
        choice, value = "S_minus_T", minus_val
    else:
        choice, value = "complement_of_T", comp_val
    if value < floor - PROB_SLACK:
        raise StructureViolationError(
            f"neither candidate clears delta/120 = {floor}: "
            f"S_minus_T={minus_val}, complement_of_T={comp_val}")
    return EliminateWitness(choice=choice, value=value)
