"""Uniformity testing and tracking over finite domains.

Library surface: distances and likelihood-ratio helpers, Poissonization
plumbing, a single-interval Poisson rate tester, a relabeling-invariant
count tester, the branching uniformity test, the anytime tracker, the
experiment harness, and the brute-force oracles behind the CLI's oracle
subcommand.
"""

from .distances import (DiscreteDistribution, PoissonMixture,
                        StructureViolationError, hellinger_sq,
                        hellinger_sq_bernoulli, hellinger_sq_bernoulli_bounds,
                        log_pmf_ratio, mixture_pmf, poisson_log_pmf)
from .full_tester import (FullTesterParams, derive_full_params,
                          run_full_tester, subset_thresholds)
from .harness import (DistributionFamilySpec, ExperimentConfig, TrialRecord,
                      realize_family, run_experiment, summarize_records,
                      wilson_interval, write_records_jsonl)
from .interval_tester import (ACCEPT, BUDGET_EXCEEDED, REJECT, CollisionWitness,
                              IntervalTesterParams, IntervalWitness, Verdict,
                              derive_interval_params, run_interval_tester)
from .oracle import (BestInterval, ThresholdSetStructure, best_interval,
                     estimate_opt_samples, exact_hellinger_poisson_vs_mixture,
                     exact_tv_poisson_vs_mixture, threshold_set_structure)
from .poisson import (SeededRng, StreamExhausted, SymbolStream, poissonize,
                      read_frequency_vector, read_symbols,
                      stream_from_distribution)
from .tracker import (BUDGET_EXHAUSTED, PLAUSIBLE, REJECTED, StageRecord,
                      TrackerState, stage_failure_budget, stage_sample_target,
                      tracker_feed, tracker_new, tracker_run)
from .uniformity_tester import (BRANCH_COLLISION, BRANCH_POISSONIZED,
                                SampleBudgetReport, UniformityTestConfig,
                                collision_count_baseline, collision_group_count,
                                collision_group_test, poissonized_sample_cap,
                                test_uniformity)

__version__ = "0.1.0"

__all__ = [
    "ACCEPT", "BRANCH_COLLISION", "BRANCH_POISSONIZED", "BUDGET_EXCEEDED",
    "BUDGET_EXHAUSTED", "BestInterval", "CollisionWitness",
    "DiscreteDistribution", "DistributionFamilySpec", "ExperimentConfig",
    "FullTesterParams", "IntervalTesterParams", "IntervalWitness",
    "PLAUSIBLE", "PoissonMixture", "REJECT", "REJECTED",
    "SampleBudgetReport", "SeededRng", "StageRecord", "StreamExhausted",
    "StructureViolationError", "SymbolStream", "ThresholdSetStructure",
    "TrackerState", "TrialRecord", "UniformityTestConfig", "Verdict",
    "best_interval", "collision_count_baseline", "collision_group_count",
    "collision_group_test", "derive_full_params", "derive_interval_params",
    "estimate_opt_samples", "exact_hellinger_poisson_vs_mixture",
    "exact_tv_poisson_vs_mixture", "hellinger_sq", "hellinger_sq_bernoulli",
    "hellinger_sq_bernoulli_bounds", "log_pmf_ratio", "mixture_pmf",
    "poisson_log_pmf", "poissonize", "poissonized_sample_cap",
    "read_frequency_vector", "read_symbols", "realize_family",
    "run_experiment", "run_full_tester", "run_interval_tester",
    "stage_failure_budget", "stage_sample_target",
    "stream_from_distribution", "subset_thresholds", "summarize_records",
    "test_uniformity", "tracker_feed", "tracker_new", "tracker_run",
    "wilson_interval", "write_records_jsonl",
]
