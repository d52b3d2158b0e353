"""Reference computations that only the tests use; the library never calls them.

Each one cross-checks a library claim: the tracker's expected-consumption
series, the relabeled Poisson null model, the multinomial count split,
the full tester's bounds over the whole square of cells, exhaustive
product TV, and the pinned good-interval calibration corpus
(tests/data/calibration.json).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from unifwatch import (DiscreteDistribution, FullTesterParams, PoissonMixture,
                       SeededRng, best_interval,
                       exact_hellinger_poisson_vs_mixture,
                       hellinger_sq_bernoulli_bounds, subset_thresholds)
from unifwatch.tracker import STAGE_SOUNDNESS

BRUTE_FORCE_CEILING = 10_000_000
CALIBRATION = Path(__file__).resolve().parent / "data" / "calibration.json"


def tracker_expected_samples_bound(stage_sample_fn: Callable[[int], float],
                                   h: int, soundness: float = STAGE_SOUNDNESS,
                                   tol: float = 1e-9, max_terms: int = 200) -> float:
    """Expected-consumption bound once stage h suffices for the instance.

    Sum of all earlier stage costs plus a geometric series over later ones:
    sum_{l < h} f(2^l) + sum_{j >= 0} soundness^j * f(2^(h+j)).  The series
    is truncated once a term stops moving the total by a relative tol; it
    converges whenever f grows polynomially.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    total = math.fsum(stage_sample_fn(1 << level) for level in range(h))
    tail = 0.0
    weight = 1.0
    for j in range(max_terms):
        term = weight * stage_sample_fn(1 << (h + j))
        tail += term
        if j > 0 and term < tol * max(tail, 1.0):
            break
        weight *= soundness
    else:
        raise ValueError("stage cost series did not converge; is it polynomial?")
    return total + tail


def sample_perm_poisson(rates: np.ndarray, rng: SeededRng) -> np.ndarray:
    """Sample counts from a uniformly relabeled Poisson product.

    Permutes the rate vector uniformly at random, then draws each coordinate
    independently Poisson.  This is the null model for testers that must be
    label-blind.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size < 1:
        raise ValueError("rates must be a nonempty 1-D array")
    if not np.all(np.isfinite(rates)) or rates.min() < 0:
        raise ValueError("rates must be finite and nonnegative")
    perm = rng.generator.permutation(rates.size)
    return rng.generator.poisson(rates[perm]).astype(np.int64)


def multinomial_split(y: int, s: int, rng: SeededRng) -> np.ndarray:
    """Split one count y into s parts by one multinomial draw over s equal bins.

    numpy draws it as s sequential binomials, O(s) per count whatever y is.
    poisson_split throws balls into bins instead: the same law, drawn from a
    different random stream.
    """
    return rng.generator.multinomial(int(y), np.full(int(s), 1.0 / s)).astype(np.int64)


def dense_scaled_bounds(params: FullTesterParams, mu_mass: np.ndarray,
                        k0: int = 0, k1: int | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Per-(k, a, b) rejection bounds on raw counts over the whole square.

    Row j is subset size k0+1+j: the count of [a, b] fires when it is at
    most lo*s*k or at least hi*s*k, (lo, hi) from
    hellinger_sq_bernoulli_bounds at threshold tau/k.  The cells a > b are
    no interval and get bounds that never fire.  O(k * (x_max+1)^2) memory.
    """
    k1 = params.n if k1 is None else k1
    lo, hi = hellinger_sq_bernoulli_bounds(
        mu_mass[None, :, :], subset_thresholds(params)[k0:k1, None, None])
    scale = params.s * np.arange(k0 + 1, k1 + 1, dtype=np.float64)[:, None, None]
    lo *= scale
    hi *= scale
    below = np.tri(mu_mass.shape[0], k=-1, dtype=bool)  # a > b
    lo[:, below] = -np.inf
    hi[:, below] = np.inf
    return lo, hi


def dense_live_bounds(params: FullTesterParams, mu_mass: np.ndarray, live: int,
                      k0: int, k1: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The live window's tables, reduced from dense_scaled_bounds.

    Returns (lo, hi, zero_fires) for the cells a <= b < live in (a, b)
    order.  The last cell of row a stands for every b >= live-1: it takes
    the max of lo and the min of hi over them.  zero_fires[k] says whether
    any cell a >= live fires at that k with a count of 0: lo >= 0 or
    hi <= 0 at some such cell.
    """
    lo, hi = dense_scaled_bounds(params, mu_mass, k0, k1)
    cells = [(a, b) for a in range(live) for b in range(a, live)]
    cell_a, cell_b = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    lo_cells = lo[:, cell_a, cell_b]
    hi_cells = hi[:, cell_a, cell_b]
    last = cell_b == live - 1
    lo_cells[:, last] = lo[:, :live, live - 1:].max(axis=2)
    hi_cells[:, last] = hi[:, :live, live - 1:].min(axis=2)
    zero_fires = (lo[:, live:, live:] >= 0.0).any(axis=(1, 2))
    zero_fires |= (hi[:, live:, live:] <= 0.0).any(axis=(1, 2))
    return lo_cells, hi_cells, zero_fires


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
    return json.loads(CALIBRATION.read_text())
