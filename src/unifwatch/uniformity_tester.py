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

A UniformityTestConfig is the plan: building one picks the branch and derives
its reservation and parameters once; test_uniformity only runs it.

Also included: the classic pairwise-collision-count baseline used for
comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distances import check_integer, check_integers
from .full_tester import FullTesterParams, derive_full_params, run_full_tester
from .interval_tester import ACCEPT, BUDGET_EXCEEDED, REJECT, CollisionWitness, Verdict
from .poisson import SeededRng, SymbolStream, poissonize

BRANCH_COLLISION = "collision"
BRANCH_POISSONIZED = "poissonized"


@dataclass(frozen=True)
class UniformityTestConfig:
    """Budgeted test plan: domain size n, target budget m, failure budget delta.

    Construction derives the branch, the samples it reserves (g*m, or the
    Poissonized cap) and, if Poissonized, the full tester's params and the
    Poisson mean s*m'.  n and m are integers (check_integer: a float or a
    bool is refused, not truncated).  overrides are keyword arguments
    forwarded to derive_full_params (r, s, x_max, tau), so a bad one raises
    here; experiments that lower r for runtime state so explicitly.
    """

    n: int
    m: int
    delta: float
    overrides: dict = field(default_factory=dict)
    branch: str = field(init=False, compare=False)
    samples_reserved: int = field(init=False, compare=False)
    params: FullTesterParams | None = field(init=False, compare=False, default=None)
    poisson_mean: float | None = field(init=False, compare=False, default=None)

    def __post_init__(self):
        check_integer(self.n, "n", 2)
        check_integer(self.m, "m", 1)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.m <= math.sqrt(self.n) / 2.0:
            plan = {"branch": BRANCH_COLLISION,
                    "samples_reserved": collision_group_count(self.delta) * self.m}
        else:
            cap, params, m_prime = poissonized_sample_cap(self.n, self.m, self.delta,
                                                          self.overrides)
            plan = {"branch": BRANCH_POISSONIZED, "samples_reserved": cap,
                    "params": params, "poisson_mean": params.s * float(m_prime)}
        for name, value in plan.items():
            object.__setattr__(self, name, value)


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
    block = check_integers(stream.take(total), "symbol", 1, n).reshape(g, m)
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
    """Run the config's plan on the stream.

    Child RNG layout: child(0) draws the Poissonized total, child(1) permutes
    the frequency vector, child(2) drives the full tester.  The collision
    branch needs no randomness beyond the stream itself.
    """
    if config.branch == BRANCH_COLLISION:
        return collision_group_test(config.n, config.m, config.delta, stream)

    total = _draw_total(rng.child(0), config.poisson_mean)
    if total > config.samples_reserved:
        verdict, total = Verdict(outcome=BUDGET_EXCEEDED), 0
    else:
        freq = poissonize(stream.take(total), config.n)
        freq = rng.child(1).generator.permutation(freq)
        verdict = run_full_tester(config.params, freq, rng.child(2))
    report = SampleBudgetReport(samples_requested=config.samples_reserved,
                                samples_consumed=total, branch=BRANCH_POISSONIZED)
    return verdict, report


def collision_count_baseline(n: int, m: int, stream: SymbolStream
                             ) -> tuple[Verdict, SampleBudgetReport]:
    """Classic pairwise-collision test at a fixed two-sigma threshold.

    Computes the collision fraction c = sum_i C(f_i, 2) / C(m, 2) and accepts
    iff c <= 1/n + 2/(m*sqrt(n)); the slack is twice the worst-case standard
    deviation of c under uniform (variance at most 4/(m^2*n)).  A fixed-
    threshold single-shot test: roughly 75% power, no delta knob.  Pairs
    are counted over the distinct symbols read, so memory is O(m) however
    large n is.
    """
    n = check_integer(n, "n", 2)
    m = check_integer(m, "m", 2)  # a pair needs two samples
    samples = check_integers(stream.take(m), "symbol", 1, n)
    _, freq = np.unique(samples, return_counts=True)
    pairs = float((freq * (freq - 1) // 2).sum())
    fraction = pairs / (m * (m - 1) / 2.0)
    threshold = 1.0 / n + 2.0 / (m * math.sqrt(n))
    outcome = ACCEPT if fraction <= threshold else REJECT
    verdict = Verdict(outcome=outcome,
                      witness=CollisionWitness(groups=1, collided=int(pairs)))
    report = SampleBudgetReport(samples_requested=m, samples_consumed=m,
                                branch=BRANCH_COLLISION)
    return verdict, report
