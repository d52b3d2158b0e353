"""Anytime uniformity tracking: watch a stream, shout when it cannot be uniform.

The tracker never accepts.  It runs stage testers at doubling budgets
m = 1, 2, 4, ... with stage h given failure budget delta/(2*2^h) (capped at
1/10 so every stage keeps at least 9/10 soundness).  Summing the stage
budgets keeps the lifetime false-alarm probability below delta on a uniform
stream, while any fixed non-uniform source is caught once the stage budget
passes what the instance needs, with expected overshoot bounded by a
geometric sum over later stages.

Each stage runs one UniformityTestConfig, built as the stage starts.  It
fixes the samples the stage pre-reserves before resolving, so the samples
consumed by a run are a deterministic function of the seed.

tracker_feed is the one feed path: it takes one symbol or a block.
tracker_run takes each stage's remaining reserve from a stream in one read
and feeds it to tracker_feed as a block.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .interval_tester import REJECT
from .poisson import SeededRng, SymbolStream
# poissonized_sample_cap is unused here; perfbench's trace wrap points look it up.
from .uniformity_tester import poissonized_sample_cap  # noqa: F401
from .uniformity_tester import UniformityTestConfig, test_uniformity

PLAUSIBLE = "plausible"
REJECTED = "reject"
BUDGET_EXHAUSTED = "budget_exhausted"

# Soundness floor for every stage tester: failure budgets are capped at 1/10.
STAGE_SOUNDNESS = 0.1


@dataclass
class StageRecord:
    """One resolved stage: budget, verdict, and exact samples charged."""

    stage: int
    m: int
    stage_delta: float
    branch: str
    outcome: str
    samples: int


@dataclass
class TrackerState:
    """Mutable tracking run.  Build with tracker_new, feed with tracker_feed."""

    n: int
    delta: float
    rng: SeededRng
    overrides: dict = field(default_factory=dict)
    max_stage: int | None = None
    stage: int = 0
    status: str = PLAUSIBLE
    cumulative_samples: int = 0
    history: list[StageRecord] = field(default_factory=list)
    _buffer: list = field(default_factory=list, repr=False)
    # The current stage's plan, built as the stage starts, not per fed symbol.
    config: UniformityTestConfig = field(init=False)

    def __post_init__(self):
        self._plan_stage()

    def _plan_stage(self) -> None:
        delta = stage_failure_budget(self.delta, self.stage)
        self.config = UniformityTestConfig(self.n, 1 << self.stage, delta, self.overrides)


def stage_failure_budget(delta: float, stage: int) -> float:
    """Stage h gets min(delta/(2*2^h), 1/10): summable and at least 9/10 sound."""
    return min(delta / (2.0 * (1 << stage)), STAGE_SOUNDNESS)


# stage_sample_target is unused here; perfbench plans its stages with it and
# traces it by name, so a sweep for unused code must keep it.
def stage_sample_target(n: int, m: int, stage_delta: float,
                        overrides: dict | None = None) -> int:
    """Samples a stage reserves before resolving: its plan's reservation."""
    return UniformityTestConfig(n=n, m=m, delta=stage_delta,
                                overrides=overrides or {}).samples_reserved


def tracker_new(n: int, delta: float, seed: int | SeededRng,
                overrides: dict | None = None,
                max_stage: int | None = None) -> TrackerState:
    """Fresh tracker at stage 0 (m = 1) with stage failure budget delta/2."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if max_stage is not None and max_stage < 0:
        raise ValueError("max_stage must be nonnegative")
    rng = seed if isinstance(seed, SeededRng) else SeededRng(int(seed))
    return TrackerState(n=int(n), delta=float(delta), rng=rng,
                        overrides=dict(overrides or {}), max_stage=max_stage)


def tracker_feed(state: TrackerState, symbols) -> str:
    """Feed one symbol or a 1-D integer block; returns plausible, reject, or
    budget_exhausted.

    Terminal states are sticky: feeding after reject or budget exhaustion
    raises.  A symbol that is not an integer is refused, not truncated; a
    block is checked whole before any of it is used.  Symbols buffer until
    the current stage's reserve is full, then the stage resolves in one
    shot.  A block resolves each stage it completes, in order, and stops at
    the first terminal status, charging none of its symbols past it.
    """
    if state.status != PLAUSIBLE:
        raise RuntimeError(f"tracker is terminal ({state.status}); no further input")
    try:
        symbol = operator.index(symbols)
    except TypeError:
        block = np.asarray(symbols)
        if block.ndim != 1 or (block.size and block.dtype.kind not in "iu"):
            raise ValueError(f"symbol {symbols!r} is not an integer "
                             "or a 1-D integer block") from None
        if block.size and (block.min() < 1 or block.max() > state.n):
            raise ValueError(f"symbol out of range 1..{state.n}") from None
    else:
        if not 1 <= symbol <= state.n:
            raise ValueError(f"symbol {symbol} out of range 1..{state.n}")
        state._buffer.append(symbol)
        state.cumulative_samples += 1
        if len(state._buffer) < state.config.samples_reserved:
            return PLAUSIBLE
        block = np.empty(0, dtype=np.int64)
    while True:
        config = state.config
        need = config.samples_reserved - len(state._buffer)
        stage_block, block = block[:need], block[need:]
        state.cumulative_samples += stage_block.size
        if stage_block.size < need:
            state._buffer += stage_block.tolist()
            return PLAUSIBLE
        if state._buffer:
            # The buffer becomes an array once; the symbol that filled it
            # (need == 0) hands it over with no join.
            buffered = np.asarray(state._buffer, dtype=np.int64)
            stage_block = np.concatenate([buffered, stage_block]) if need else buffered
            state._buffer = []
        verdict, report = test_uniformity(config, SymbolStream(stage_block),
                                          state.rng.child(state.stage))
        state.history.append(StageRecord(
            stage=state.stage, m=config.m, stage_delta=config.delta,
            branch=report.branch, outcome=verdict.outcome,
            samples=stage_block.size))
        if verdict.outcome == REJECT:
            state.status = REJECTED
            return REJECTED
        # accept and budget_exceeded both advance; the latter burned its
        # stage's failure budget without evidence either way.
        if state.max_stage is not None and state.stage + 1 > state.max_stage:
            state.status = BUDGET_EXHAUSTED
            return BUDGET_EXHAUSTED
        state.stage += 1
        state._plan_stage()


def tracker_run(state: TrackerState, stream: SymbolStream,
                max_samples: int | None = None) -> str:
    """Drive a tracker from a stream with block reads until it stops.

    Equivalent to feeding symbol by symbol: each stage's remaining target is
    one take(), fed to tracker_feed as a block.  Stops on reject, budget
    exhaustion, or before a take that would pass max_samples (returning the
    current status, still plausible).  A short take charges nothing.
    """
    while state.status == PLAUSIBLE:
        need = state.config.samples_reserved - len(state._buffer)
        if max_samples is not None and state.cumulative_samples + need > max_samples:
            break
        tracker_feed(state, stream.take(need))
    return state.status
