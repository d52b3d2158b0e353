"""Full tester: is a count vector Poi(mu)^n or a relabeled non-uniform product?

Input is one frequency vector y where y_i ~ Poi(s*lambda_i) independently,
with the alternative promising that the rate profile (lambda_i) is a uniform
relabeling of something far from the constant profile (mu, ..., mu).  Each
count is split exactly into s exchangeable parts, so every coordinate yields
s i.i.d. Poi(lambda_i) looks.  A random subset of coordinates then pools
into a Poisson mixture, and the one-shot interval comparison applies.

Subsets are shared across sizes: each repeat draws one permutation and grows
a prefix k = 1..n, testing every interval at threshold tau/k.  That reuses
one permutation for all k instead of resampling a fresh subset per
(size, interval, repeat) triple.  oracle.literal_full_tester runs the
literal per-triple scheme as a brute-force reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import hellinger_sq_bernoulli, hellinger_sq_bernoulli_bounds
from .interval_tester import (ACCEPT, REJECT, IntervalWitness, Verdict,
                              interval_mass_matrix, poisson_pmf_table)
from .poisson import SeededRng, poisson_split, validate_frequency_vector

# k rows are processed in blocks to bound the (block, x_max+1, x_max+1)
# working tensors; 128 keeps them a few MB at typical ceilings.
K_BLOCK = 128


@dataclass(frozen=True)
class FullTesterParams:
    """Operating point: split factor s, repeats r, ceiling x_max, threshold tau."""

    n: int
    mu: float
    tau: float
    s: int
    r: int
    x_max: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not math.isfinite(self.mu) or self.mu < 0:
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        if self.tau <= 0 or self.s < 1 or self.r < 1 or self.x_max < 0:
            raise ValueError("tau must be > 0, s >= 1, r >= 1, x_max >= 0")


def derive_full_params(n: int, mu: float, delta: float,
                       r: int | None = None,
                       s: int | None = None,
                       x_max: int | None = None,
                       tau: float | None = None) -> FullTesterParams:
    """Derive the operating point for domain size n and failure budget delta.

    With L = ln(max(n, 3)):
        x_max = ceil(2*mu + 6*(L + ln(20/delta)))
        tau   = 1/(16*L^2)
        r     = ceil(8*ln(2/delta)*n*L)
        s     = ceil((1/tau)*ln(8*(x_max+1)^2*n*r/delta))

    Any constant can be overridden (s is derived from the final r, so a
    downward r override shrinks s consistently).  The derived combination
    must keep the union-bound self-check
    n*r*(x_max+1)^2 * 2*exp(-s*tau) <= delta/2; overrides that break it are
    rejected.  r dominates runtime and may be overridden downward for
    desk-scale experiments; completeness is unaffected (fewer tests), only
    the soundness repetition margin shrinks.
    """
    n = int(n)
    mu = float(mu)
    delta = float(delta)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not math.isfinite(mu) or mu < 0:
        raise ValueError(f"mu must be finite and nonnegative, got {mu}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    big_l = math.log(max(n, 3))
    if x_max is None:
        x_max = math.ceil(2.0 * mu + 6.0 * (big_l + math.log(20.0 / delta)))
    if tau is None:
        tau = 1.0 / (16.0 * big_l * big_l)
    if r is None:
        r = math.ceil(8.0 * math.log(2.0 / delta) * n * big_l)
    if s is None:
        s = math.ceil((1.0 / tau) * math.log(8.0 * (x_max + 1) ** 2 * n * r / delta))
    params = FullTesterParams(n=n, mu=mu, tau=float(tau), s=int(s), r=int(r),
                              x_max=int(x_max))
    failure = n * params.r * (params.x_max + 1) ** 2 * 2.0 * math.exp(-params.s * params.tau)
    if failure > delta / 2.0:
        raise ValueError(
            f"union-bound self-check failed: total false-rejection mass {failure:.3g} "
            f"> delta/2 = {delta / 2.0:.3g}; raise s or lower r/x_max")
    return params


def subset_thresholds(params: FullTesterParams) -> np.ndarray:
    """Rejection threshold used at each subset size k = 1..n: exactly tau/k."""
    return params.tau / np.arange(1, params.n + 1, dtype=np.float64)


def _split_histograms(params: FullTesterParams, freq: np.ndarray,
                      rng: SeededRng) -> np.ndarray:
    """Validate freq, split each count into s parts, histogram the parts.

    Returns H with H[i, x] = number of parts of coordinate i equal to x,
    for x <= x_max; larger parts land in no interval and are dropped.
    """
    freq = validate_frequency_vector(freq)
    if freq.size != params.n:
        raise ValueError(f"expected {params.n} counts, got {freq.size}")
    if params.s * params.mu > 1e12:
        raise ValueError(f"s*mu = {params.s * params.mu:.3g} too large to split safely")
    width = params.x_max + 1
    hist = np.zeros((params.n, width), dtype=np.float64)
    for i in range(params.n):
        parts = poisson_split(int(freq[i]), params.s, rng)
        kept = parts[parts <= params.x_max]
        hist[i, :] = np.bincount(kept, minlength=width)
    return hist


def _scaled_bounds(params: FullTesterParams, mu_mass: np.ndarray,
                   valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Precompute per-(k, a, b) rejection bounds on raw interval counts.

    hellinger_sq_bernoulli(mu_I, est) >= tau/k is equivalent to the count
    falling at or below lo(mu_I, tau/k)*s*k, or at or above
    hi(mu_I, tau/k)*s*k, with (lo, hi) from hellinger_sq_bernoulli_bounds.
    Scaling by s*k once lets each repeat test raw prefix-sum differences
    with two comparisons and no square roots.
    """
    lo, hi = hellinger_sq_bernoulli_bounds(
        mu_mass[None, :, :], subset_thresholds(params)[:, None, None])
    scale = params.s * np.arange(1, params.n + 1, dtype=np.float64)[:, None, None]
    lo *= scale
    hi *= scale
    lo[:, ~valid] = -np.inf
    hi[:, ~valid] = np.inf
    return lo, hi


def run_full_tester(params: FullTesterParams, freq: np.ndarray,
                    rng: SeededRng) -> Verdict:
    """Run the full tester on one frequency vector.

    Rejection takes the lowest (repeat, k, a, b) witness, so the verdict is a
    pure function of (params, freq, rng seed).  Total interval evaluations
    are bounded by r*n*(x_max+1)*(x_max+2)/2 and reported on the verdict.
    Repeats use independent child generators, so they could run in parallel;
    this implementation scans them in order to keep the early exit cheap.
    """
    hist = _split_histograms(params, freq, rng.child(0))
    width = params.x_max + 1
    per_k_intervals = width * (width + 1) // 2
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    valid = np.triu(np.ones((width, width), dtype=bool))
    lo_counts, hi_counts = _scaled_bounds(params, mu_mass, valid)

    evaluated = 0
    for rep in range(params.r):
        perm = rng.child(1 + rep).generator.permutation(params.n)
        cum = np.cumsum(hist[perm], axis=0)                      # (n, width)
        prefix = np.concatenate(
            (np.zeros((params.n, 1)), np.cumsum(cum, axis=1)), axis=1)
        for k0 in range(0, params.n, K_BLOCK):
            k1 = min(k0 + K_BLOCK, params.n)
            rows = prefix[k0:k1]
            counts = rows[:, None, 1:] - rows[:, :-1, None]      # (blk, a, b)
            viol = (counts <= lo_counts[k0:k1]) | (counts >= hi_counts[k0:k1])
            evaluated += (k1 - k0) * per_k_intervals
            if not viol.any():
                continue
            flat = int(np.argmax(viol))  # first (k, a, b) in C order
            k_off, rest = divmod(flat, width * width)
            a, b = divmod(rest, width)
            k = k0 + k_off + 1
            est = float(counts[k_off, a, b]) / (params.s * k)
            witness = IntervalWitness(
                a=int(a), b=int(b), mu_mass=float(mu_mass[a, b]),
                est_mass=min(max(est, 0.0), 1.0),
                hellinger_sq=float(hellinger_sq_bernoulli(
                    float(mu_mass[a, b]), min(max(est, 0.0), 1.0))),
                repeat=rep, subset_size=k)
            return Verdict(outcome=REJECT, witness=witness,
                           intervals_evaluated=evaluated)
    return Verdict(outcome=ACCEPT, intervals_evaluated=evaluated)
