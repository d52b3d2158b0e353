"""Anytime tracker: stage schedule, accounting, terminal behavior, bounds."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unifwatch import tracker, uniformity_tester
from unifwatch import (BRANCH_COLLISION, BRANCH_POISSONIZED, BUDGET_EXHAUSTED,
                       PLAUSIBLE, REJECTED, DiscreteDistribution, SeededRng,
                       SymbolStream, collision_group_count,
                       stage_failure_budget, stage_sample_target,
                       stream_from_distribution, tracker_feed, tracker_new,
                       tracker_run)

from reference import tracker_expected_samples_bound


def test_stage_failure_budget_schedule():
    assert stage_failure_budget(0.2, 0) == pytest.approx(0.1)
    assert stage_failure_budget(0.2, 1) == pytest.approx(0.05)
    assert stage_failure_budget(0.2, 4) == pytest.approx(0.2 / 32)
    # the cap keeps every stage at least 9/10 sound
    assert stage_failure_budget(0.9, 0) == pytest.approx(0.1)
    # lifetime false-alarm mass stays within delta
    assert sum(stage_failure_budget(0.2, h) for h in range(60)) <= 0.2


def test_stage_sample_target_both_branches():
    # collision regime: g*m with g from the stage budget
    assert stage_sample_target(256, 2, 0.05) == collision_group_count(0.05) * 2
    # poissonized regime matches the branch cap
    target = stage_sample_target(25, 4, 0.025, {"r": 2})
    from unifwatch import poissonized_sample_cap
    cap, _, _ = poissonized_sample_cap(25, 4, 0.025, {"r": 2})
    assert target == cap


def test_tracker_new_validation():
    with pytest.raises(ValueError):
        tracker_new(n=1, delta=0.1, seed=0)
    with pytest.raises(ValueError):
        tracker_new(n=10, delta=0.0, seed=0)
    with pytest.raises(ValueError):
        tracker_new(n=10, delta=0.1, seed=0, max_stage=-1)
    state = tracker_new(n=10, delta=0.1, seed=SeededRng(5))
    assert state.stage == 0 and state.config.m == 1
    assert state.config.delta == pytest.approx(0.05)
    assert state.config.samples_reserved == collision_group_count(0.05)


def test_point_mass_rejects_at_second_stage():
    """m = 1 groups cannot collide; m = 2 groups always do on a point mass."""
    state = tracker_new(n=100, delta=0.2, seed=123)
    outcome = PLAUSIBLE
    fed = 0
    while outcome == PLAUSIBLE:
        outcome = tracker_feed(state, 7)
        fed += 1
    assert outcome == REJECTED
    assert state.status == REJECTED
    targets = [collision_group_count(0.1) * 1, collision_group_count(0.05) * 2]
    assert fed == state.cumulative_samples == sum(targets) == 503
    assert [rec.outcome for rec in state.history] == ["accept", "reject"]
    assert [rec.m for rec in state.history] == [1, 2]
    assert [rec.samples for rec in state.history] == targets
    assert all(rec.branch == BRANCH_COLLISION for rec in state.history)


def test_terminal_state_is_sticky():
    state = tracker_new(n=100, delta=0.2, seed=123)
    while state.status == PLAUSIBLE:
        tracker_feed(state, 7)
    with pytest.raises(RuntimeError):
        tracker_feed(state, 7)


def test_feed_rejects_out_of_range_symbols():
    state = tracker_new(n=10, delta=0.2, seed=1)
    with pytest.raises(ValueError):
        tracker_feed(state, 0)
    with pytest.raises(ValueError):
        tracker_feed(state, 11)


def test_feed_refuses_non_integer_symbols():
    """2.7 is refused, not fed as symbol 2; numpy integers are symbols."""
    state = tracker_new(n=10, delta=0.2, seed=1)
    for symbol in (2.7, 3.0, np.float64(3.0), "3"):
        with pytest.raises(ValueError, match=re.escape(f"symbol {symbol!r} is not")):
            tracker_feed(state, symbol)
    assert state.cumulative_samples == 0
    tracker_feed(state, np.int64(3))
    assert state.cumulative_samples == 1


def test_stage_sequence_doubles_until_cutoff():
    """Uniform stream, max_stage = 3: stages m = 1, 2, 4, 8 then exhausted."""
    state = tracker_new(n=256, delta=0.2, seed=9, max_stage=3)
    stream = stream_from_distribution(DiscreteDistribution.uniform(256),
                                      SeededRng(10))
    outcome = tracker_run(state, stream)
    assert outcome == BUDGET_EXHAUSTED
    assert [rec.m for rec in state.history] == [1, 2, 4, 8]
    assert [rec.stage_delta for rec in state.history] == pytest.approx(
        [0.1, 0.05, 0.025, 0.0125])
    assert state.cumulative_samples == sum(rec.samples for rec in state.history)
    assert state.cumulative_samples == 3307  # 145 + 358 + 844 + 1960


def test_feed_and_run_agree():
    """Symbol-by-symbol feeding and block-driven running resolve identically."""
    symbols = stream_from_distribution(DiscreteDistribution.uniform(256),
                                       SeededRng(11)).take(3307)
    fed = tracker_new(n=256, delta=0.2, seed=12, max_stage=3)
    outcome_fed = PLAUSIBLE
    for symbol in symbols:
        outcome_fed = tracker_feed(fed, int(symbol))
        if outcome_fed != PLAUSIBLE:
            break
    ran = tracker_new(n=256, delta=0.2, seed=12, max_stage=3)
    outcome_ran = tracker_run(ran, SymbolStream(symbols))
    assert outcome_fed == outcome_ran
    assert fed.cumulative_samples == ran.cumulative_samples
    assert [(r.stage, r.outcome, r.samples) for r in fed.history] == \
           [(r.stage, r.outcome, r.samples) for r in ran.history]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), support=st.integers(1, 16),
       length=st.integers(0, 520),
       cuts=st.lists(st.integers(0, 520), max_size=6))
def test_feed_and_run_agree_for_any_chunking(seed, support, length, cuts):
    """Any mix of block runs and single feeds resolves like feeding alone.

    n = 16, max_stage = 1: stage targets 145 and 358, both collision stages;
    a small support makes stage 1 reject.
    """
    symbols = SeededRng(seed).generator.integers(1, support + 1, size=length)
    fed = tracker_new(n=16, delta=0.2, seed=seed, max_stage=1)
    for symbol in symbols:
        if tracker_feed(fed, int(symbol)) != PLAUSIBLE:
            break
    mixed = tracker_new(n=16, delta=0.2, seed=seed, max_stage=1)
    edges = sorted({0, length, *(c for c in cuts if c < length)})
    for start, stop in zip(edges, edges[1:]):
        chunk = symbols[start:stop]
        stream = SymbolStream(chunk)
        if mixed.status == PLAUSIBLE:
            tracker_run(mixed, stream,
                        max_samples=mixed.cumulative_samples + chunk.size)
        for symbol in chunk[stream.consumed:]:
            if mixed.status != PLAUSIBLE:
                break
            tracker_feed(mixed, int(symbol))
    assert mixed.status == fed.status
    assert mixed.cumulative_samples == fed.cumulative_samples
    assert mixed.history == fed.history


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), support=st.integers(1, 16),
       cuts=st.lists(st.integers(0, 520), max_size=6),
       singles=st.lists(st.booleans(), max_size=7))
@example(seed=0, support=1, cuts=[], singles=[])
@example(seed=1, support=1, cuts=[100, 200, 510], singles=[False, True])
@example(seed=2, support=16, cuts=[300], singles=[])
def test_block_feeds_agree_with_run(seed, support, cuts, singles):
    """Any cut of a stream into tracker_feed blocks resolves like tracker_run.

    n = 16, max_stage = 1: stage targets 145 and 358, so 520 symbols always
    end the run at 503 with a reject (small support) or budget exhaustion.
    A block may span both stages, end mid-stage or run past the stop; the
    chunks flagged in singles are fed one symbol at a time instead, so a
    block may also meet a part-filled buffer.  Symbols past the stop are
    not charged.
    """
    symbols = SeededRng(seed).generator.integers(1, support + 1, size=520)
    ran = tracker_new(n=16, delta=0.2, seed=seed, max_stage=1)
    tracker_run(ran, SymbolStream(symbols))
    fed = tracker_new(n=16, delta=0.2, seed=seed, max_stage=1)
    edges = sorted({0, 520, *cuts})
    for index, (start, stop) in enumerate(zip(edges, edges[1:])):
        if fed.status != PLAUSIBLE:
            break
        if index < len(singles) and singles[index]:
            for symbol in symbols[start:stop]:
                if tracker_feed(fed, int(symbol)) != PLAUSIBLE:
                    break
        else:
            tracker_feed(fed, symbols[start:stop])
    assert ran.status in (REJECTED, BUDGET_EXHAUSTED)
    assert fed.status == ran.status
    assert fed.history == ran.history
    assert fed.cumulative_samples == ran.cumulative_samples == 503


def test_feed_checks_a_block_before_using_it():
    """A bad block is refused whole: nothing is buffered, charged or resolved."""
    state = tracker_new(n=10, delta=0.2, seed=1)
    for block in ([3] * 144 + [11], np.array([[1, 2]]), np.array([1.0, 2.0])):
        with pytest.raises(ValueError):
            tracker_feed(state, block)
    assert (state.cumulative_samples, state._buffer, state.history) == (0, [], [])
    assert tracker_feed(state, np.array([3] * 150)) == PLAUSIBLE
    assert (state.cumulative_samples, len(state._buffer)) == (150, 5)
    assert [rec.samples for rec in state.history] == [145]


def test_feed_derives_each_stage_target_once(monkeypatch):
    """tracker_feed reads the stored stage plan; it builds one per stage only."""
    calls = []
    plan = tracker.UniformityTestConfig

    def counting(*args, **kwargs):
        config = plan(*args, **kwargs)
        calls.append(config.m)
        return config

    monkeypatch.setattr(tracker, "UniformityTestConfig", counting)
    state = tracker_new(n=256, delta=0.2, seed=13, max_stage=3)
    stream = stream_from_distribution(DiscreteDistribution.uniform(256),
                                      SeededRng(14))
    for symbol in stream.take(3307):
        if tracker_feed(state, int(symbol)) != PLAUSIBLE:
            break
    assert state.status == BUDGET_EXHAUSTED
    assert state.cumulative_samples == 3307
    assert len(state.history) == 4
    assert calls == [1, 2, 4, 8]


def _feed_all(state, stream):
    while state.status == PLAUSIBLE:
        tracker_feed(state, int(stream.take(1)[0]))


@pytest.mark.parametrize("drive", [tracker_run, _feed_all])
def test_poissonized_stage_derives_params_once(monkeypatch, drive):
    """n = 64: stages m = 8 and m = 16 are Poissonized; each derives once."""
    calls = []
    derive = uniformity_tester.derive_full_params

    def counting(n, mu, delta, **overrides):
        calls.append(mu)
        return derive(n, mu, delta, **overrides)

    monkeypatch.setattr(uniformity_tester, "derive_full_params", counting)
    state = tracker_new(n=64, delta=0.2, seed=19, max_stage=4,
                        overrides={"r": 2})
    drive(state, stream_from_distribution(DiscreteDistribution.uniform(64),
                                          SeededRng(20)))
    assert state.status == BUDGET_EXHAUSTED
    assert [rec.branch for rec in state.history] == \
        [BRANCH_COLLISION] * 3 + [BRANCH_POISSONIZED] * 2
    assert calls == [20 / 64, 32 / 64]  # m' = max(2m, 20) over n


def test_run_respects_max_samples_and_resumes():
    state = tracker_new(n=256, delta=0.2, seed=13, max_stage=3)
    stream = stream_from_distribution(DiscreteDistribution.uniform(256),
                                      SeededRng(14))
    # enough for stages 0 and 1 but not stage 2 (target 844)
    outcome = tracker_run(state, stream, max_samples=503 + 100)
    assert outcome == PLAUSIBLE
    assert state.cumulative_samples == 503
    assert state.stage == 2
    # resuming with room finishes the schedule
    outcome = tracker_run(state, stream)
    assert outcome == BUDGET_EXHAUSTED
    assert state.cumulative_samples == 3307


def test_tracker_reaches_poissonized_stage():
    """n = 25 crosses to the Poissonized branch at stage 2 (m = 4 > 2.5)."""
    state = tracker_new(n=25, delta=0.2, seed=15, max_stage=2,
                        overrides={"r": 2})
    stream = stream_from_distribution(DiscreteDistribution.uniform(25),
                                      SeededRng(16))
    outcome = tracker_run(state, stream)
    assert outcome in (BUDGET_EXHAUSTED, REJECTED)
    assert [rec.branch for rec in state.history][:2] == [BRANCH_COLLISION] * 2
    assert state.history[2].branch == BRANCH_POISSONIZED


def test_uniform_stream_rarely_trips():
    """Lifetime false-alarm rate across stages 0..3 stays within delta = 0.2."""
    rejects = 0
    for t in range(100):
        state = tracker_new(n=256, delta=0.2, seed=17_000 + t, max_stage=3)
        stream = stream_from_distribution(DiscreteDistribution.uniform(256),
                                          SeededRng(18_000 + t))
        if tracker_run(state, stream) == REJECTED:
            rejects += 1
    assert rejects / 100 <= 0.2


def test_expected_samples_bound_linear_cost():
    # f(m) = m, h = 3: 1 + 2 + 4 = 7 before, 8/(1 - 0.2) = 10 after
    bound = tracker_expected_samples_bound(lambda m: float(m), h=3)
    assert bound == pytest.approx(17.0, rel=1e-8)


def test_expected_samples_bound_scales_linearly():
    f = lambda m: m * math.log(m + 2) ** 2
    one = tracker_expected_samples_bound(f, h=4)
    two = tracker_expected_samples_bound(lambda m: 2 * f(m), h=4)
    assert two == pytest.approx(2 * one, rel=1e-9)
    # independent plain summation of the same series
    direct = sum(f(1 << level) for level in range(4))
    direct += sum(0.1 ** j * f(1 << (4 + j)) for j in range(80))
    assert one == pytest.approx(direct, rel=1e-6)


def test_expected_samples_bound_rejects_divergent_cost():
    # per-stage cost ratio 20 beats the 1/10 soundness discount, so the
    # series diverges (terms stay in float range for all 200 iterations)
    diverging = lambda m: 20.0 ** math.log2(m)
    with pytest.raises(ValueError, match="converge"):
        tracker_expected_samples_bound(diverging, h=0)
    with pytest.raises(ValueError):
        tracker_expected_samples_bound(lambda m: float(m), h=-1)
