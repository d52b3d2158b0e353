"""Reference computations that only the tests use; the library never calls them.

Each one cross-checks a library claim: the tracker's expected-consumption
series, the relabeled Poisson null model, the multinomial count split,
the full tester's bounds over the whole square of cells, exhaustive
product TV, and the pinned good-interval calibration corpus
(tests/data/calibration.json).  The rest are the slow, literal forms the
claims are stated in: direct Poisson interval masses, the PMF ratio, TV and
KL distances, witness shrinking, the per-triple full tester, a Monte Carlo
TV bound, depoissonization and the JSONL record reader.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from unifwatch import (ACCEPT, REJECT, DiscreteDistribution, FullTesterParams,
                       IntervalWitness, PoissonMixture, SeededRng,
                       StructureViolationError, TrialRecord, Verdict,
                       best_interval, exact_hellinger_poisson_vs_mixture,
                       hellinger_sq_bernoulli, hellinger_sq_bernoulli_bounds,
                       log_pmf_ratio, poisson_log_pmf, subset_thresholds)
from unifwatch.distances import (PROB_SLACK, _check_rate, _check_same_domain,
                                 check_integer)
from unifwatch.full_tester import _split_histograms
from unifwatch.interval_tester import interval_mass_matrix, poisson_pmf_table
from unifwatch.poisson import validate_frequency_vector
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


@dataclass(frozen=True)
class IntervalMass:
    """Mass a distribution places on the integer interval [a, b]."""

    a: int
    b: int
    mass: float


def poisson_interval_mass(mu: float, a: int, b: int) -> IntervalMass:
    """Mass Poi(mu) places on [a, b], summed directly in increasing x."""
    mu = _check_rate(mu)
    a = check_integer(a, "a", 0)
    b = check_integer(b, "b", 0)
    if a > b:
        raise ValueError(f"empty interval: a={a} > b={b}")
    terms = [math.exp(poisson_log_pmf(mu, x)) for x in range(a, b + 1)]
    mass = min(max(math.fsum(terms), 0.0), 1.0)
    return IntervalMass(a=a, b=b, mass=mass)


def pmf_ratio(mix: PoissonMixture, mu: float, x: int) -> float:
    """mixture_pmf(mix, x) / Poi(mu)(x).

    Overflows to +inf only when the true ratio exceeds float range; use
    log_pmf_ratio when values that large are possible.
    """
    lr = log_pmf_ratio(mix, mu, x)
    if lr > 709.0:
        return math.inf
    return math.exp(lr)


def tv_distance(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Total variation distance: half the L1 distance between mass vectors."""
    _check_same_domain(p, q)
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


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


def depoissonize(freq: np.ndarray, rng: SeededRng) -> np.ndarray:
    """Expand counts back into a uniformly shuffled sequence of symbols."""
    freq = validate_frequency_vector(freq)
    symbols = np.repeat(np.arange(1, freq.size + 1, dtype=np.int64), freq)
    return rng.generator.permutation(symbols)


def record_from_dict(payload: dict) -> TrialRecord:
    return TrialRecord(trial=int(payload["trial"]), seed=int(payload["seed"]),
                       verdict=str(payload["verdict"]),
                       branch=payload["branch"],
                       samples_consumed=int(payload["samples_consumed"]),
                       witness=payload["witness"],
                       wall_time=float(payload["wall_time"]))


def read_records_jsonl(path: str | Path) -> list[TrialRecord]:
    with open(path, encoding="utf-8") as handle:
        return [record_from_dict(json.loads(line))
                for line in handle if line.strip()]
