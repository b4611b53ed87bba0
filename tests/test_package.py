"""The package namespace: each module's ``__all__`` resolves, the package
exports exactly their union, and no name of the frozen public API is lost."""

import trunctail
from trunctail import diagnostics, distributions, estimator, montecarlo, normal

MODULES = (diagnostics, distributions, estimator, montecarlo, normal)

# every name the package exported before it re-exported the modules' __all__
FROZEN_API = {
    "AdaptiveParams", "AssumptionReport", "Burr", "CStatisticTrend",
    "DegenerateSampleError", "Exponential", "ExperimentError", "ExperimentResult",
    "ExperimentSpec", "HillEstimate", "InsufficientTailDataError", "LightTailModel",
    "NormalityReport", "Pareto", "ReplicationResult", "SampleData", "TailModel",
    "TruncatedSampleSpec", "TruncationScheme", "Uniform", "Zero", "adaptive_k",
    "beta_feasible_range", "c_statistic_trend", "check_assumptions",
    "delta_feasible_range", "estimate", "hill_curve", "hill_statistic",
    "ks_distance", "normal_cdf", "normal_quantile", "parse_light_model",
    "parse_tail_model", "parse_truncation", "qq_points", "replication_seed",
    "report_for_parameters", "run_experiment", "run_replication",
    "sample_c_statistic", "sample_tail", "sample_truncated", "tilde_k", "u_count",
    "v_count",
}


def test_every_module_entry_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)


def test_package_exports_exactly_the_union():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(trunctail.__all__) == sorted(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(trunctail, name) is getattr(module, name), name


def test_frozen_public_api_is_still_exported():
    assert len(FROZEN_API) == 46
    assert FROZEN_API <= set(trunctail.__all__)
    for name in FROZEN_API:
        assert hasattr(trunctail, name), name
