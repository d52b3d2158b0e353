"""Probability-mass and distance primitives for Poisson and discrete distributions.

Everything here is deterministic math: Poisson PMFs in log space, Poisson
mixtures and their likelihood ratio to one Poisson, and Bernoulli and vector
Hellinger distances with the threshold bounds the testers compare against.

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

    Raised by falsification hooks (threshold-set classification, truncation
    certificates).  Seeing this exception means either a numerical problem or a
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
        n = check_integer(n, "n", 1)
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


def check_integer(value, name: str, low: int) -> int:
    """value as an int, once it is a Python or numpy integer, not a bool,
    and at least low.  Anything else raises ValueError naming it: a float is
    refused, never truncated."""
    # np.bool_ is neither an int nor an np.integer
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_integers(values, name: str, low: int | None = None,
                   high: int | None = None) -> np.ndarray:
    """values as a 1-D int64 array, once they are a 1-D array of integers
    (or empty) within [low, high].  name is one element's noun ("symbol",
    "count"); min and max are computed only for a bound that is given, and
    high is given only with low.
    """
    array = np.asarray(values)
    if array.ndim != 1:
        raise ValueError(f"{name} array must be 1-D, got shape {array.shape}")
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"{name} array must hold integers, got dtype {array.dtype}")
    array = array.astype(np.int64, copy=False)
    if array.size and high is not None:
        if array.min() < low or array.max() > high:
            raise ValueError(f"{name} out of range {low}..{high}")
    elif array.size and low is not None and array.min() < low:
        raise ValueError(f"{name} must be >= {low}, got {array.min()}")
    return array


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
    x = check_integer(x, "x", 0)
    if rate == 0.0:
        return 0.0 if x == 0 else -math.inf
    return -rate + x * math.log(rate) - math.lgamma(x + 1)


def mixture_pmf(mix: PoissonMixture, x: int) -> float:
    """PMF of the uniform mixture at x: mean of component PMFs.

    Each component is evaluated via poisson_log_pmf then exponentiated;
    log-PMFs are <= 0 so the exponentials never overflow.
    """
    x = check_integer(x, "x", 0)
    terms = [math.exp(poisson_log_pmf(r, x)) for r in mix.rates.tolist()]
    return math.fsum(terms) / mix.k


def log_pmf_ratio(mix: PoissonMixture, mu: float, x: int) -> float:
    """log(mixture_pmf(mix, x) / Poi(mu)(x)), stable for large exponents.

    Common log terms are factored out: each component contributes
    exp(mu - rate + x*(log rate - log mu)).  Returns -inf when the mixture
    has zero mass at x.  Signals if mu = 0 and x > 0 (zero denominator).
    """
    mu = _check_rate(mu)
    x = check_integer(x, "x", 0)
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


def hellinger_sq(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Squared Hellinger distance: sum of (sqrt(p_i) - sqrt(q_i))^2."""
    _check_same_domain(p, q)
    diffs = np.sqrt(np.clip(p.probs, 0.0, None)) - np.sqrt(np.clip(q.probs, 0.0, None))
    return float((diffs * diffs).sum())
