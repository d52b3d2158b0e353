"""Budgeted uniformity testing over symbols 1..n, adaptive to the instance.

Two regimes, picked by the sample budget m:

* m <= sqrt(n)/2: group collision test.  Draw an odd number g of groups of m
  fresh samples each; a group "collides" when any symbol repeats inside it.
  Under uniform the per-group collision chance is at most 1/4; any
  distribution that a profile-aware test could reject with m samples pushes
  it past 2/3, so a group majority separates the two with failure
  probability delta.

* m > sqrt(n)/2: Poissonized count test.  Draw Z ~ Poi(s*m') samples with
  m' = max(2m, 20), fold them into a frequency vector, permute coordinates,
  and hand the result to the full tester at mu = m'/n.  Z above the hard cap
  2*s*m' + 6*ln(2/delta) is a distinct budget-exceeded outcome (probability
  at most delta), never a silent over-read.

Also included: the classic pairwise-collision-count baseline used for
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .full_tester import FullTesterParams, derive_full_params, run_full_tester
from .interval_tester import ACCEPT, BUDGET_EXCEEDED, REJECT, CollisionWitness, Verdict
from .poisson import SeededRng, SymbolStream, poissonize

BRANCH_COLLISION = "collision"
BRANCH_POISSONIZED = "poissonized"


@dataclass(frozen=True)
class UniformityTestConfig:
    """Budgeted test request: domain size n, target budget m, failure budget delta.

    overrides are keyword arguments forwarded to derive_full_params (r, s,
    x_max, tau) when the Poissonized branch runs; experiments that lower r
    for runtime state so explicitly.
    """

    n: int
    m: int
    delta: float
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class SampleBudgetReport:
    """What a test run asked for and actually read, and which branch ran."""

    samples_requested: int
    samples_consumed: int
    branch: str


def collision_group_count(delta: float) -> int:
    """Smallest odd integer >= 48*ln(2/delta): the group count g."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    g = math.ceil(48.0 * math.log(2.0 / delta))
    return g if g % 2 == 1 else g + 1


def poissonized_sample_cap(n: int, m: int, delta: float,
                           overrides: dict | None = None) -> tuple[int, FullTesterParams, int]:
    """Hard sample cap for the Poissonized branch, with the derived params.

    Returns (cap, params, m') where cap = floor(2*s*m' + 6*ln(2/delta)).
    Deterministic given the arguments, so callers can pre-reserve samples.
    """
    m_prime = max(2 * m, 20)
    mu = m_prime / n
    params = derive_full_params(n, mu, delta, **(overrides or {}))
    cap = math.floor(2.0 * params.s * m_prime + 6.0 * math.log(2.0 / delta))
    return cap, params, m_prime


def collision_group_test(n: int, m: int, delta: float, stream: SymbolStream
                         ) -> tuple[Verdict, SampleBudgetReport]:
    """Majority vote over g groups of m samples; reject iff > g/2 groups collide.

    The uniform-side guarantee needs m <= sqrt(n)/2 (so a group collides with
    probability <= 1/4); callers outside that regime get the mechanical
    verdict without the guarantee.  Consumes exactly g*m samples.
    """
    g = collision_group_count(delta)
    total = g * m
    block = stream.take(total).reshape(g, m)
    if block.size and (block.min() < 1 or block.max() > n):
        raise ValueError(f"symbol out of range 1..{n}")
    if m < 2:
        collided = 0
    else:
        ordered = np.sort(block, axis=1)
        collided = int(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1).sum())
    outcome = REJECT if collided > g / 2 else ACCEPT
    verdict = Verdict(outcome=outcome,
                      witness=CollisionWitness(groups=g, collided=collided))
    report = SampleBudgetReport(samples_requested=total, samples_consumed=total,
                                branch=BRANCH_COLLISION)
    return verdict, report


def _draw_total(rng: SeededRng, mean: float) -> int:
    """Poisson draw for the Poissonized branch total; separate for testability."""
    return int(rng.generator.poisson(mean))


def test_uniformity(config: UniformityTestConfig, stream: SymbolStream,
                    rng: SeededRng) -> tuple[Verdict, SampleBudgetReport]:
    """Route the budget to the right branch and run it.

    Child RNG layout: child(0) draws the Poissonized total, child(1) permutes
    the frequency vector, child(2) drives the full tester.  The collision
    branch needs no randomness beyond the stream itself.
    """
    n, m, delta = config.n, config.m, config.delta
    if m <= math.sqrt(n) / 2.0:
        return collision_group_test(n, m, delta, stream)

    cap, params, m_prime = poissonized_sample_cap(n, m, delta, config.overrides)
    total = _draw_total(rng.child(0), params.s * float(m_prime))
    if total > cap:
        report = SampleBudgetReport(samples_requested=cap, samples_consumed=0,
                                    branch=BRANCH_POISSONIZED)
        return Verdict(outcome=BUDGET_EXCEEDED), report

    samples = stream.take(total)
    freq = poissonize(samples, n)
    freq = rng.child(1).generator.permutation(freq)
    verdict = run_full_tester(params, freq, rng.child(2))
    report = SampleBudgetReport(samples_requested=cap, samples_consumed=total,
                                branch=BRANCH_POISSONIZED)
    return verdict, report


def collision_count_baseline(n: int, m: int, stream: SymbolStream
                             ) -> tuple[Verdict, SampleBudgetReport]:
    """Classic pairwise-collision test at a fixed two-sigma threshold.

    Computes the collision fraction c = sum_i C(f_i, 2) / C(m, 2) and accepts
    iff c <= 1/n + 2/(m*sqrt(n)); the slack is twice the worst-case standard
    deviation of c under uniform (variance at most 4/(m^2*n)).  A fixed-
    threshold single-shot test: roughly 75% power, no delta knob.
    """
    n = int(n)
    m = int(m)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if m < 2:
        raise ValueError(f"m must be >= 2 to form pairs, got {m}")
    samples = stream.take(m)
    freq = poissonize(samples, n)
    pairs = float((freq * (freq - 1) // 2).sum())
    fraction = pairs / (m * (m - 1) / 2.0)
    threshold = 1.0 / n + 2.0 / (m * math.sqrt(n))
    outcome = ACCEPT if fraction <= threshold else REJECT
    verdict = Verdict(outcome=outcome,
                      witness=CollisionWitness(groups=1, collided=int(pairs)))
    report = SampleBudgetReport(samples_requested=m, samples_consumed=m,
                                branch=BRANCH_COLLISION)
    return verdict, report
