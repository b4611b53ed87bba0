"""The package namespace: each module's ``__all__`` resolves, the package
exports exactly their union, no name of the frozen public API is lost, and
every name the benchmark's tracer rebinds still exists."""

import importlib.util
import sys
from pathlib import Path

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


def test_benchmark_tracer_finds_every_name_it_rebinds(monkeypatch):
    # perfbench's instrumented() skips a name it cannot find, so a renamed
    # function would silently drop its layer's metrics from the benchmark
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look it up
    spec.loader.exec_module(tracer)
    lookups = []

    def recording_getattr(owner, attr, *default):
        found = getattr(owner, attr, *default)
        lookups.append((owner.__name__, attr, found is not None))
        return found

    monkeypatch.setattr(tracer, "getattr", recording_getattr, raising=False)  # shadows the builtin
    with tracer.instrumented(tracer.Tracer("t")):
        assert montecarlo.estimate is not estimator.estimate
    assert montecarlo.estimate is estimator.estimate
    assert lookups
    assert [(owner, attr) for owner, attr, found in lookups if not found] == []
