"""Uniformity testing and tracking over finite domains.

Library surface: distances and likelihood-ratio helpers, Poissonization
plumbing, a single-interval Poisson rate tester, a relabeling-invariant
count tester, the branching uniformity test, the anytime tracker, and a
brute-force oracle suite for validating structural claims at desk scale.
"""

from .distances import (DiscreteDistribution, PoissonMixture,
                        StructureViolationError, eliminate_large_witness,
                        hellinger_sq, hellinger_sq_bernoulli,
                        hellinger_sq_bernoulli_bounds, kl_divergence,
                        log_pmf_ratio, mixture_pmf, pmf_ratio,
                        poisson_interval_mass, poisson_log_pmf, poisson_pmf,
                        tv_distance)
from .full_tester import (FullTesterParams, derive_full_params,
                          run_full_tester, subset_thresholds)
from .harness import (DistributionFamilySpec, ExperimentConfig, TrialRecord,
                      read_records_csv, read_records_jsonl, realize_family,
                      run_experiment, summarize_records, wilson_interval,
                      write_records_csv,
                      write_records_jsonl, write_summary)
from .interval_tester import (ACCEPT, BUDGET_EXCEEDED, REJECT, CollisionWitness,
                              IntervalTesterParams, IntervalWitness, Verdict,
                              derive_interval_params, run_interval_tester)
from .oracle import (BestInterval, ThresholdSetStructure, best_interval,
                     estimate_opt_samples, exact_hellinger_poisson_vs_mixture,
                     exact_tv_poisson_vs_mixture, mc_tv_lower_bound,
                     threshold_set_structure)
from .poisson import (SeededRng, StreamExhausted, SymbolStream, depoissonize,
                      poissonize, read_frequency_vector, read_symbols,
                      sample_poisson, stream_from_distribution)
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
    "collision_group_test", "depoissonize", "derive_full_params",
    "derive_interval_params", "eliminate_large_witness",
    "estimate_opt_samples", "exact_hellinger_poisson_vs_mixture",
    "exact_tv_poisson_vs_mixture", "hellinger_sq", "hellinger_sq_bernoulli",
    "hellinger_sq_bernoulli_bounds", "kl_divergence", "log_pmf_ratio",
    "mc_tv_lower_bound", "mixture_pmf", "pmf_ratio",
    "poisson_interval_mass", "poisson_log_pmf", "poisson_pmf", "poissonize",
    "poissonized_sample_cap", "read_frequency_vector", "read_records_csv",
    "read_records_jsonl", "read_symbols", "realize_family",
    "run_experiment", "run_full_tester", "run_interval_tester",
    "sample_poisson", "stage_failure_budget", "stage_sample_target",
    "stream_from_distribution", "subset_thresholds", "summarize_records",
    "test_uniformity", "tracker_feed", "tracker_new", "tracker_run",
    "tv_distance", "wilson_interval", "write_records_csv",
    "write_records_jsonl", "write_summary",
]
