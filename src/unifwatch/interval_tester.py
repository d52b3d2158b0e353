"""One-shot interval tester: known Poisson vs unknown Poisson mixture.

Given i.i.d. counts that are either Poi(mu) or some uniform Poisson mixture
at squared-Hellinger distance >= eps from it, the tester histograms the
sample, then compares the empirical mass of every integer interval [a, b]
inside [0, x_max] against the exact Poi(mu) interval mass with a Bernoulli
squared-Hellinger threshold.  Some interval must separate the two cases, so
scanning all of them loses nothing but constants.
first_violation runs that scan on one row of prefix counts, for
run_interval_tester and for each rejection of the full tester.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distances import (check_integer, check_integers, check_real,
                        hellinger_sq_bernoulli, hellinger_sq_bernoulli_bounds,
                        poisson_log_pmf)

ACCEPT = "accept"
REJECT = "reject"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class IntervalTesterParams:
    """Derived operating point: ceiling x_max, threshold tau, sample count m.
    mu and tau are stored as finite floats; a bool or a string is refused."""

    mu: float
    tau: float
    x_max: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "mu", check_real(self.mu, "mu", ge=0))
        object.__setattr__(self, "tau", check_real(self.tau, "tau", gt=0))
        check_integer(self.x_max, "x_max", 0)
        check_integer(self.m, "m", 1)


@dataclass(frozen=True)
class IntervalWitness:
    """The interval that triggered rejection, with both masses and the gap."""

    a: int
    b: int
    mu_mass: float
    est_mass: float
    hellinger_sq: float
    repeat: int | None = None
    subset_size: int | None = None


@dataclass(frozen=True)
class CollisionWitness:
    """Group-collision evidence: how many of the g groups collided."""

    groups: int
    collided: int


@dataclass(frozen=True)
class Verdict:
    """Tester outcome plus optional rejection evidence and a work counter."""

    outcome: str  # accept | reject | budget_exceeded
    witness: object | None = None
    intervals_evaluated: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.outcome not in (ACCEPT, REJECT, BUDGET_EXCEEDED):
            raise ValueError(f"unknown outcome {self.outcome!r}")


def derive_interval_params(mu: float, eps: float, delta: float) -> IntervalTesterParams:
    """Operating point for target Hellinger gap eps and failure budget delta.

    x_max = ceil(2*mu + 6*ln(200*ln(4/eps)/eps)) + 1
    tau   = eps / (64*ln(4/eps))
    m     = ceil(8*ln(8*(x_max+1)^2/delta) / tau)

    A custom operating point is an IntervalTesterParams built directly.  A
    bool or a string mu, eps or delta is refused, not cast.
    """
    mu = check_real(mu, "mu", ge=0)
    eps = check_real(eps, "eps", gt=0, le=2)
    delta = check_real(delta, "delta", gt=0, lt=1)
    log_term = math.log(4.0 / eps)
    x_max = math.ceil(2.0 * mu + 6.0 * math.log(200.0 * log_term / eps)) + 1
    tau = eps / (64.0 * log_term)
    m = math.ceil(8.0 * math.log(8.0 * (x_max + 1) ** 2 / delta) / tau)
    return IntervalTesterParams(mu=mu, tau=tau, x_max=x_max, m=m)


def poisson_pmf_table(mu: float, x_max: int) -> np.ndarray:
    """Poi(mu) PMF on 0..x_max as a float64 vector."""
    return np.array([math.exp(poisson_log_pmf(mu, x)) for x in range(x_max + 1)])


def interval_mass_matrix(pmf: np.ndarray) -> np.ndarray:
    """M[a, b] = sum of pmf[a..b], clipped to [0, 1]; a > b entries are 0."""
    prefix = np.concatenate(([0.0], np.cumsum(pmf)))
    mat = prefix[np.newaxis, 1:] - prefix[:-1, np.newaxis]
    return np.clip(np.triu(mat), 0.0, 1.0)


def first_violation(prefix: np.ndarray, mu_mass: np.ndarray, threshold: float,
                    scale: float) -> IntervalWitness | None:
    """Witness of the lexicographically first interval [a, b] that fires, or None.

    prefix[j] counts the draws below j (j = 0..x_max+1), so [a, b] counts
    prefix[b+1] - prefix[a], estimating mass count/scale.  It fires when
    the count is <= lo*scale or >= hi*scale, (lo, hi) from
    hellinger_sq_bernoulli_bounds at threshold: the gap reaches threshold,
    except at threshold >= 2, where no interval fires, even at a gap of 2.
    """
    lo, hi = hellinger_sq_bernoulli_bounds(mu_mass, threshold)
    lo *= scale
    hi *= scale
    counts = prefix[np.newaxis, 1:] - prefix[:-1, np.newaxis]
    fires = np.triu((counts <= lo) | (counts >= hi))
    if not fires.any():
        return None
    a, b = divmod(int(np.argmax(fires)), mu_mass.shape[1])  # C order = (a, b)
    mass = float(mu_mass[a, b])
    est = min(max(float(counts[a, b]) / scale, 0.0), 1.0)
    return IntervalWitness(a=a, b=b, mu_mass=mass, est_mass=est,
                           hellinger_sq=hellinger_sq_bernoulli(mass, est))


def run_interval_tester(params: IntervalTesterParams, samples: np.ndarray) -> Verdict:
    """Scan every interval; reject on the first (lexicographic) violation.

    samples are m nonnegative integer counts (check_integers).  Counts above
    x_max are ignored (they fall in no interval).  The verdict is a pure
    function of (params, samples): O(m + x_max^2) time via a prefix-summed
    histogram and first_violation at threshold tau.
    """
    samples = check_integers(samples, "sample", 0)
    if samples.size != params.m:
        raise ValueError(f"expected m={params.m} samples, got {samples.size}")

    x_max = params.x_max
    hist = np.bincount(samples[samples <= x_max], minlength=x_max + 1)
    prefix = np.concatenate(([0.0], np.cumsum(hist, dtype=np.float64)))
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, x_max))
    witness = first_violation(prefix, mu_mass, params.tau, params.m)
    return Verdict(outcome=ACCEPT if witness is None else REJECT, witness=witness,
                   intervals_evaluated=(x_max + 1) * (x_max + 2) // 2)
