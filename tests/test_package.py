"""The package namespace: each module's ``__all__`` resolves, the package
exports exactly their union, no name of the frozen public API is lost,
every name the benchmark's tracer rebinds still exists, and each command
imports only the modules it runs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trunctail
from trunctail import cli, diagnostics, distributions, estimator, montecarlo, normal

MODULES = (diagnostics, distributions, estimator, montecarlo, normal)

SRC = str(Path(__file__).resolve().parent.parent / "src")
DIAGNOSE = ["diagnose", "--alpha", "2", "--rho", "-0.5", "--beta", "0.8", "--delta", "0.45"]

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


# runs `python -m trunctail` in a new interpreter that prints its modules
# on exit (-X importtime misses a module that importlib.import_module loads)
MAIN = "import runpy; runpy.run_module('trunctail', run_name='__main__', alter_sys=True)"


def _modules(code, *args):
    """The exit code, stdout and loaded modules of a new interpreter that
    runs code with these arguments."""
    report = "import atexit, sys; atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr))\n"
    proc = subprocess.run([sys.executable, "-c", report + code, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    return proc.returncode, proc.stdout, set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("code, args, exit_code", [
    ("import trunctail", [], 0),
    ("import trunctail.cli", [], 0),
    ("from trunctail import cli", [], 0),
    (MAIN, DIAGNOSE, 0),
    # the console script's way in
    ("from trunctail.cli import entry; entry()", DIAGNOSE, 0),
    (MAIN, [], 2),
], ids=["import", "import-cli", "from-import-cli", "diagnose", "entry-diagnose", "no-arguments"])
def test_start_imports_no_numpy(code, args, exit_code):
    got, _, modules = _modules(code, *args)
    assert got == exit_code
    assert "trunctail" in modules and "numpy" not in modules


def test_looking_up_the_stubs_imports_no_numpy():
    # the tracer looks up every name before it rebinds it; only a call imports
    code, out, modules = _modules("import trunctail.cli as cli\n"
                                  "print(sum(callable(getattr(cli, n)) for ns in cli._STUBS.values() for n in ns))")
    assert (code, out) == (0, "13\n")
    assert "numpy" not in modules


def test_every_stub_names_an_attribute_of_its_module():
    # a misspelt name would fail only the command that calls it, and only then
    for module, names in cli._STUBS.items():
        found = vars(importlib.import_module(f"trunctail.{module}"))
        assert [name for name in names if name not in found] == [], module


def test_modules_are_attributes_of_the_package():
    # as when the package imported them itself
    code, out, _ = _modules("import trunctail; print(trunctail.montecarlo.__name__)")
    assert (code, out) == (0, "trunctail.montecarlo\n")


def test_invalid_diagnose_exits_two_with_one_line():
    proc = subprocess.run([sys.executable, "-m", "trunctail", "diagnose", "--alpha", "-1", "--beta", "0.8",
                           "--delta", "0.45"], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: alpha must be positive, got -1.0\n")


def test_simulate_and_estimate_leave_the_harness_out(tmp_path):
    sample = tmp_path / "s.csv"
    code, _, modules = _modules(MAIN, "simulate", "--tail", "burr:tau=1,lambda=2", "--light", "exp:rate=1",
                                "--trunc", "A=1,delta=0.45", "--n", "2000", "--seed", "3", "--output", str(sample))
    assert code == 0 and "trunctail.distributions" in modules and "trunctail.montecarlo" not in modules
    code, _, modules = _modules(MAIN, "estimate", "--input", str(sample))
    assert code == 0 and "trunctail.estimator" in modules and "trunctail.montecarlo" not in modules
