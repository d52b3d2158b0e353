"""Acceptance gate: ten end-to-end criteria with frozen seeds and budgets.

Each test prints one `A# PASS/FAIL` line with its headline numbers and wall
time (visible with -s; the -v test lines carry the same verdicts).  Trial
counts, tolerances, and runtime limits are fixed; every randomized check
runs from literal seeds so pass/fail is deterministic on a given platform.
Statistical tolerances leave 3 sigma or more of Monte Carlo slack.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from test_distances import ratio_convexity_holds
from unifwatch import (ACCEPT, REJECT, REJECTED, DiscreteDistribution,
                       DistributionFamilySpec, PoissonMixture, SeededRng,
                       UniformityTestConfig, cli, collision_count_baseline,
                       derive_full_params, derive_interval_params,
                       exact_hellinger_poisson_vs_mixture, hellinger_sq,
                       hellinger_sq_bernoulli, poissonize, realize_family,
                       run_full_tester, run_interval_tester,
                       stream_from_distribution, threshold_set_structure,
                       tracker_new, tracker_run)
# alias: pytest would otherwise collect the library function as a test
from unifwatch import test_uniformity as run_uniformity
from unifwatch.poisson import poisson_split

from reference import (depoissonize, eliminate_large_witness, kl_divergence,
                       mc_tv_lower_bound, pmf_ratio, read_records_jsonl,
                       tv_distance)

pytestmark = pytest.mark.acceptance


def _gate(tag: str, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    """Print the criterion's verdict line, then enforce it."""
    status = "PASS" if ok and elapsed <= limit else "FAIL"
    print(f"{tag} {status}: {detail} [{elapsed:.1f}s / {limit:.0f}s limit]")
    assert ok, f"{tag}: {detail}"
    assert elapsed <= limit, f"{tag}: took {elapsed:.1f}s, limit {limit:.0f}s"


def _heavy_probs(n: int, beta: float) -> np.ndarray:
    probs = np.full(n, (1.0 - beta) / n)
    probs[-1] = beta + (1.0 - beta) / n
    return probs


def _strip_wall(record):
    return dataclasses.replace(record, wall_time=0.0)


def test_a1_ratio_convexity():
    """Mixture-to-Poisson pmf ratio is discretely convex: 10,000 random triples."""
    start = time.perf_counter()
    gen = SeededRng(9101).generator
    violations = 0
    for _ in range(10_000):
        k = int(gen.integers(1, 5))
        mix = PoissonMixture(gen.uniform(0.0, 50.0, size=k))
        mu = float(gen.uniform(0.05, 50.0))
        x = int(gen.integers(1, 200))
        if not ratio_convexity_holds(mix, mu, x, slack=1e-9):
            violations += 1
    _gate("A1", violations == 0,
          f"convexity violations {violations}/10000 (slack 1e-9)",
          time.perf_counter() - start, 10.0)


def test_a2_threshold_set_structure():
    """Every likelihood-ratio superlevel set classifies into the four shapes."""
    start = time.perf_counter()
    gen = SeededRng(9202).generator
    violations = 0
    kinds_seen = set()
    for _ in range(1_000):
        mu = float(gen.uniform(0.5, 20.0))
        k = int(gen.integers(1, 5))
        rates = np.round(gen.uniform(0.0, 30.0, size=k), 6)
        mix = PoissonMixture(rates)
        r = float(math.exp(gen.uniform(-6.0, 6.0)))
        structure = threshold_set_structure(mu, mix, r, x_max=40)
        kinds_seen.add(structure.kind)
        if structure.kind not in ("interval", "complement_interval", "empty", "full"):
            violations += 1
            continue
        for x in range(41):
            if structure.kind == "full":
                member = True
            elif structure.kind == "empty":
                member = False
            else:
                inside = structure.a <= x and (structure.b is None or x <= structure.b)
                member = inside if structure.kind == "interval" else not inside
            if member != (pmf_ratio(mix, mu, x) >= r):
                violations += 1
                break
    _gate("A2", violations == 0,
          f"classification violations {violations}/1000, kinds seen {sorted(kinds_seen)}",
          time.perf_counter() - start, 30.0)


def test_a3_interval_tester_two_sided():
    """Single-rate interval tester separates Poi(10) from the {5,15} mixture."""
    start = time.perf_counter()
    eps_star, _ = exact_hellinger_poisson_vs_mixture(10.0, PoissonMixture(np.array([5.0, 15.0])))
    params = derive_interval_params(10.0, eps_star, 0.1)
    trials = 500
    accepts = 0
    for t in range(trials):
        gen = SeededRng(21_000 + t).generator
        samples = gen.poisson(10.0, size=params.m)
        accepts += run_interval_tester(params, samples).outcome == ACCEPT
    rejects = 0
    for t in range(trials):
        gen = SeededRng(22_000 + t).generator
        rates = gen.choice(np.array([5.0, 15.0]), size=params.m)
        samples = gen.poisson(rates)
        rejects += run_interval_tester(params, samples).outcome == REJECT
    accept_rate = accepts / trials
    reject_rate = rejects / trials
    ok = accept_rate >= 0.9 - 0.04 and reject_rate >= 0.9 - 0.04
    _gate("A3", ok,
          f"eps*={eps_star:.4f} m={params.m} accept={accept_rate:.3f} "
          f"reject={reject_rate:.3f} (floor 0.86)",
          time.perf_counter() - start, 120.0)


def test_a4_full_tester_completeness():
    """Relabeling-invariant tester accepts honest Poi(s*mu)^64 frequency draws.

    r = 512 repeats instead of the derived 7855: s is re-derived for the
    actual r, so the union-bound self-check still certifies the delta/2
    false-reject budget, and fewer repeats only lower the false-reject rate.
    """
    start = time.perf_counter()
    params = derive_full_params(64, 2.0, 0.05, r=512)
    trials = 200
    accepts = 0
    for t in range(trials):
        freq = SeededRng(23_000 + t).generator.poisson(params.s * 2.0, size=64)
        verdict = run_full_tester(params, freq.astype(np.int64), SeededRng(33_000 + t))
        accepts += verdict.outcome == ACCEPT
    rate = accepts / trials
    _gate("A4", rate >= 0.95 - 0.05,
          f"n=64 mu=2 delta=0.05 r={params.r} s={params.s} accept={rate:.3f} (floor 0.90)",
          time.perf_counter() - start, 300.0)


def test_a5_full_tester_soundness():
    """Same tester rejects a heavy-element rate profile it provably must.

    The distinguishability precondition is certified first: a Monte Carlo
    lower bound on the total variation between the null and alternative
    frequency laws (max-count statistic) must clear 0.5.
    """
    start = time.perf_counter()
    n, mu, beta = 64, 2.0, 0.5
    m_prime = int(n * mu)
    alt_rates = m_prime * _heavy_probs(n, beta)
    null_rates = np.full(n, mu)
    cert = mc_tv_lower_bound(
        lambda gen: float(gen.poisson(null_rates).max()),
        lambda gen: float(gen.poisson(alt_rates).max()),
        trials=2_000, rng=SeededRng(24_000))
    params = derive_full_params(n, mu, 0.05, r=512)
    trials = 200
    rejects = 0
    for t in range(trials):
        freq = SeededRng(25_000 + t).generator.poisson(params.s * alt_rates)
        verdict = run_full_tester(params, freq.astype(np.int64), SeededRng(35_000 + t))
        rejects += verdict.outcome == REJECT
    rate = rejects / trials
    ok = cert >= 0.5 and rate >= 0.95 - 0.05
    _gate("A5", ok,
          f"beta=0.5 tv_lower_bound={cert:.3f} (need 0.5) reject={rate:.3f} (floor 0.90)",
          time.perf_counter() - start, 600.0)


def test_a6_poisson_split_fidelity():
    """Splitting Poi(4*lam) into 4 parts reproduces independent Poi(lam) parts."""
    start = time.perf_counter()
    trials, s_parts = 100_000, 4
    worst = []
    ok = True
    for lam in (0.5, 2.0, 20.0):
        rng = SeededRng(26_000 + int(10 * lam))
        totals = rng.child(0).generator.poisson(s_parts * lam, size=trials)
        parts = poisson_split(totals, s_parts, rng.child(1))
        mean = float(parts.mean())
        var = float(parts.var(ddof=1))
        cov = np.cov(parts.T)
        off_diag = float(np.abs(cov[~np.eye(s_parts, dtype=bool)]).max())
        cov_bound = 3.0 * lam / math.sqrt(trials)
        ok = ok and abs(mean - lam) <= 0.01 * lam
        ok = ok and abs(var - lam) <= 0.01 * lam
        ok = ok and off_diag <= cov_bound
        worst.append(f"lam={lam}: mean={mean:.4f} var={var:.4f} "
                     f"|cov|={off_diag:.5f}<={cov_bound:.5f}")
    _gate("A6", ok, "; ".join(worst), time.perf_counter() - start, 60.0)


def test_a7_baseline_separation():
    """Instance-adapted budget beats the fixed pairwise-collision baseline.

    Heavy-element profile at n=1000, beta=0.2, both procedures at error
    budget 0.1: the branching tester runs at twice the Hellinger-proxy
    budget, the baseline at its standard 8*sqrt(n)/beta^2 sample size.
    Only ratio > 2 is asserted; the predicted separation is ~sqrt(n)-ish
    but constants eat most of it at this scale.
    """
    start = time.perf_counter()
    n, beta, delta = 1_000, 0.2, 0.1
    dist = realize_family(DistributionFamilySpec(family="heavy_element", n=n, beta=beta))
    proxy = math.ceil(1.0 / hellinger_sq(dist, DiscreteDistribution.uniform(n)))
    config = UniformityTestConfig(n=n, m=2 * proxy, delta=delta)
    baseline_m = math.ceil(8.0 * math.sqrt(n) / beta ** 2)
    trials = 200
    tester_consumed, baseline_consumed = [], []
    for t in range(trials):
        stream = stream_from_distribution(dist, SeededRng(27_000 + t))
        verdict, report = run_uniformity(config, stream, SeededRng(37_000 + t))
        if verdict.outcome == REJECT:
            tester_consumed.append(report.samples_consumed)
    for t in range(trials):
        stream = stream_from_distribution(dist, SeededRng(28_000 + t))
        verdict, report = collision_count_baseline(n, baseline_m, stream)
        if verdict.outcome == REJECT:
            baseline_consumed.append(report.samples_consumed)
    ok = bool(tester_consumed) and bool(baseline_consumed)
    mean_tester = float(np.mean(tester_consumed)) if tester_consumed else math.inf
    mean_baseline = float(np.mean(baseline_consumed)) if baseline_consumed else 0.0
    ratio = mean_baseline / mean_tester
    ok = ok and mean_tester < mean_baseline and ratio > 2.0
    _gate("A7", ok,
          f"proxy={proxy} m={2 * proxy} tester mean-to-reject={mean_tester:.0f} "
          f"({len(tester_consumed)}/{trials} reject) baseline={mean_baseline:.0f} "
          f"({len(baseline_consumed)}/{trials} reject) ratio={ratio:.2f} (need >2)",
          time.perf_counter() - start, 600.0)


def test_a8_tracker_guarantees():
    """Anytime tracker: rarely cries wolf on uniform, always catches two frauds.

    Stage testers run at r = 64 repeats (same self-check argument as A4).
    Mean samples-to-reject are reported against ceil(1/H^2) to show the
    competitive-overhead factor; only the rates are asserted.
    """
    start = time.perf_counter()
    n, delta, trials = 64, 0.2, 200
    overrides = {"r": 64}
    uniform = DiscreteDistribution.uniform(n)
    rejected = 0
    for t in range(trials):
        state = tracker_new(n, delta, 29_000 + t, overrides=overrides, max_stage=5)
        stream = stream_from_distribution(uniform, SeededRng(39_000 + t))
        if tracker_run(state, stream) == REJECTED:
            rejected += 1
    ever_reject = rejected / trials

    def reject_samples(probs: np.ndarray, seed_base: int) -> tuple[int, float]:
        caught, consumed = 0, []
        dist = DiscreteDistribution(probs)
        for t in range(trials):
            state = tracker_new(n, delta, seed_base + t, overrides=overrides,
                                max_stage=5)
            stream = stream_from_distribution(dist, SeededRng(seed_base + 50_000 + t))
            if tracker_run(state, stream) == REJECTED:
                caught += 1
                consumed.append(state.cumulative_samples)
        return caught, float(np.mean(consumed)) if consumed else math.inf

    point = np.zeros(n)
    point[0] = 1.0
    point_caught, point_mean = reject_samples(point, 41_000)
    heavy = _heavy_probs(n, 0.5)
    heavy_caught, heavy_mean = reject_samples(heavy, 43_000)
    point_opt = math.ceil(1.0 / hellinger_sq(DiscreteDistribution(point), uniform))
    heavy_opt = math.ceil(1.0 / hellinger_sq(DiscreteDistribution(heavy), uniform))
    ok = (ever_reject <= 0.3 and point_caught == trials and heavy_caught == trials)
    _gate("A8", ok,
          f"uniform ever-reject={ever_reject:.3f} (cap 0.3); point mass "
          f"{point_caught}/{trials} mean={point_mean:.0f} vs opt~{point_opt}; "
          f"heavy(0.5) {heavy_caught}/{trials} mean={heavy_mean:.0f} vs opt~{heavy_opt}",
          time.perf_counter() - start, 900.0)


def test_a9_distance_inequalities():
    """Sandwich, KL domination, perturbed triangle, and witness shrinking."""
    start = time.perf_counter()
    gen = SeededRng(30_001).generator
    violations = 0
    for _ in range(1_000):
        n = int(gen.integers(2, 30))
        raw_p = gen.random(n) + 1e-3
        raw_q = gen.random(n) + 1e-3
        p = DiscreteDistribution(raw_p / raw_p.sum())
        q = DiscreteDistribution(raw_q / raw_q.sum())
        h2 = hellinger_sq(p, q)
        tv = tv_distance(p, q)
        if not (0.5 * h2 <= tv + 1e-10 and tv <= math.sqrt(h2) + 1e-10):
            violations += 1
        if kl_divergence(p, q) < h2 - 1e-12:
            violations += 1
    quad = gen.uniform(0.0, 1.0, size=(1_000, 4))
    p1, q1, p2, q2 = quad[:, 0], quad[:, 1], quad[:, 2], quad[:, 3]
    lhs = (np.sqrt(p1) - np.sqrt(q1)) ** 2
    rhs = 3.0 * ((np.sqrt(p2) - np.sqrt(q2)) ** 2 + np.abs(p2 - p1) + np.abs(q2 - q1))
    violations += int((lhs > rhs + 1e-10).sum())
    accepted = 0
    while accepted < 1_000:
        delta = float(gen.uniform(0.05, 1.5))
        p_s, q_s = float(gen.random()), float(gen.random())
        if hellinger_sq_bernoulli(p_s, q_s) < delta:
            continue
        p_t = float(gen.uniform(0.0, p_s))
        q_t = float(gen.uniform(0.0, min(q_s, delta / 20.0)))
        witness = eliminate_large_witness(p_s, q_s, p_t, q_t, delta)
        if witness.value < delta / 120.0 or witness.choice not in (
                "S_minus_T", "complement_of_T"):
            violations += 1
        accepted += 1
    _gate("A9", violations == 0,
          f"violations {violations} across 4x1000 randomized instances",
          time.perf_counter() - start, 30.0)


def test_a10_roundtrip_reproducibility(tmp_path, capsys):
    """Poissonize/depoissonize invert exactly; simulate reruns bit-identically."""
    start = time.perf_counter()
    gen = SeededRng(31_002).generator
    violations = 0
    for _ in range(1_000):
        n = int(gen.integers(1, 40))
        freq = gen.integers(0, 25, size=n).astype(np.int64)
        symbols = depoissonize(freq, SeededRng(int(gen.integers(1 << 30))))
        if not np.array_equal(poissonize(symbols, n), freq):
            violations += 1
    config = {"tester": "uniformity",
              "family": {"family": "heavy_element", "n": 64, "beta": 0.5},
              "trials": 20, "seed": 11,
              "params": {"m": 6, "delta": 0.1, "overrides": {"r": 64}}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"records_{run}.jsonl"
        code = cli.main(["simulate", "--config", str(config_path),
                         "--out", str(out_path)])
        assert code == 0
        records = read_records_jsonl(out_path)
        outputs.append([_strip_wall(record) for record in records])
    capsys.readouterr()
    identical = outputs[0] == outputs[1]
    _gate("A10", violations == 0 and identical,
          f"round-trip violations {violations}/1000; rerun identical={identical}",
          time.perf_counter() - start, 30.0)
