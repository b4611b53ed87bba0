"""Replication harness: simulate truncated samples, re-estimate, standardize
by the true tail index, and summarize normality and CI coverage."""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from ._params import (
    _LEVEL,
    AdaptiveParams,
    DegenerateSampleError,
    ExperimentError,
    InsufficientTailDataError,
    _check_level,
    _check_n,
    _check_seed,
    _is_int,
    _reciprocal,
    _shown,
    _usable_cores,
)
from .diagnostics import design_rates
from .distributions import _truncated, LightTailModel, TailModel, TruncatedSampleSpec, TruncationScheme, sample_truncated
from .estimator import SampleData, _TailTooShort, estimate, tilde_k, u_count
from .normal import ks_distance, normal_quantile

__all__ = [
    "ExperimentError",
    "ExperimentSpec",
    "ReplicationResult",
    "NormalityReport",
    "ExperimentResult",
    "replication_seed",
    "run_replication",
    "run_experiment",
    "qq_points",
    "replications_csv",
    "aggregate_json",
    "qq_csv",
]


def replication_seed(base_seed: int, n: int, index: int) -> int:
    """64-bit stream seed derived from (base_seed, n, index) and nothing else,
    so scheduling and thread counts cannot change any replication."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(n, index))
    return int(ss.generate_state(1, np.uint64)[0])


# A replication walks its n raw heavy words in one thread, at about 10 ns a
# word (9.7 ns measured at n = 1e7 and 1e8 on a 2-core x86 VM), and walks them
# again if its first tail is too short; no thread count shortens that, so an n
# above 2**44 words, some 47 hours a walk, is refused up front.
_MAX_WALK = 2**44
# A study keeps a record of each replication, about 465 bytes (tracemalloc
# peak of run_experiment at n = 100 and 20,000 replications, on one thread),
# so more than 2**23 replications over all of n_list, about 3.9 GB, are
# refused up front rather than built until memory runs out.
_MAX_REPLICATIONS = 2**23


@dataclass(frozen=True)
class ExperimentSpec:
    """Template for a replication study; n and the per-replication seed vary."""

    tail: TailModel
    light: LightTailModel
    truncation: TruncationScheme
    params: AdaptiveParams
    n_list: tuple[int, ...]
    replications: int
    base_seed: int
    level: float = _LEVEL

    def __post_init__(self):
        n_list = tuple(self.n_list) if np.iterable(self.n_list) else None
        if n_list is None or not all(_is_int(n) for n in n_list):
            raise ValueError(f"n_list must be a list of integers, got {self.n_list!r}")
        object.__setattr__(self, "n_list", tuple(int(n) for n in n_list))
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        for n in self.n_list:
            _check_n(n)
            if n > _MAX_WALK:
                raise ValueError(f"n = {n} in n_list: one replication walks {n} raw heavy words "
                                 f"in one thread, more than 2**44 = {_MAX_WALK} (about 47 hours)")
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError(f"n_list must not repeat sizes, got {self.n_list}")
        if not (_is_int(self.replications) and self.replications >= 1):
            raise ValueError(f"replications must be an integer >= 1, got {_shown(self.replications)}")
        if self.replications * len(self.n_list) > _MAX_REPLICATIONS:
            raise ValueError(f"replications must be at most {_MAX_REPLICATIONS // len(self.n_list)} for "
                             f"{len(self.n_list)} size(s) in n_list: at most 2**23 = {_MAX_REPLICATIONS} "
                             f"replication records in all (about 3.9 GB)")
        _check_seed(self.base_seed, "base_seed")
        object.__setattr__(self, "level", _check_level(self.level))
        _reciprocal("tail.alpha", self.tail.alpha)  # z is centred at 1/alpha


@dataclass(frozen=True)
class ReplicationResult:
    """One simulate-estimate pass. z standardizes h by the TRUE tail index:
    z = alpha * sqrt(k_hat) * (h - 1/alpha); z_plugin studentizes by h instead."""

    n: int
    index: int
    failed: bool
    k_hat: int | None
    h: float | None
    z: float | None
    z_plugin: float | None
    ci_covers: bool | None
    u_count: int
    tilde_k: int
    error: str | None = None


@dataclass(frozen=True)
class NormalityReport:
    """Aggregate over the successful replications at one sample size."""

    n: int
    count: int
    mean_z: float
    var_z: float
    ks_distance: float
    coverage: float
    failures: int

    def to_dict(self) -> dict:
        return {"ks" if k == "ks_distance" else k: v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class ExperimentResult:
    replications: tuple[ReplicationResult, ...]
    reports: dict[int, NormalityReport]


# The top of the sample that a replication runs on holds about this many
# times the oracle count tilde_k of values.
_CUT_SAFETY = 4


def run_replication(spec: ExperimentSpec, n: int, index: int) -> ReplicationResult:
    """One replication; estimator failures are recorded, not raised.

    It runs on the top of the sample, _CUT_SAFETY times the oracle count of
    the design's closed forms (design_rates), and is redone on the whole
    sample from the same streams if it needs more; the result is the same
    either way.
    """
    seed = replication_seed(spec.base_seed, n, index)
    draw = TruncatedSampleSpec(spec.tail, spec.light, spec.truncation, n, seed)
    rates = design_rates(spec.tail, spec.truncation, spec.params, n)
    m = rates.threshold
    try:
        return _replicate(spec, index, _truncated(draw, min(1.0, _CUT_SAFETY * rates.oracle_k / n)), m)
    except _TailTooShort:
        return _replicate(spec, index, sample_truncated(draw), m)


def _replicate(spec: ExperimentSpec, index: int, sample: SampleData, m: float) -> ReplicationResult:
    n = sample.n
    u = u_count(sample, spec.params.gamma, m)
    tk = tilde_k(n, u, spec.params.beta)
    alpha = spec.tail.alpha
    target = 1.0 / alpha
    try:
        est = estimate(sample, spec.params, spec.level)
        root_k = math.sqrt(est.k_hat)
        z = alpha * root_k * (est.h - target)
        z_plugin = root_k * (est.h - target) / est.h
        if not (math.isfinite(z) and math.isfinite(z_plugin)):
            raise OverflowError(f"z or z_plugin overflows: alpha = {alpha!r}, h = {est.h!r}")
        outcome = dict(failed=False, k_hat=est.k_hat, h=est.h, z=z, z_plugin=z_plugin,
                       ci_covers=bool(est.ci_lo <= target <= est.ci_hi))
    except (InsufficientTailDataError, DegenerateSampleError, OverflowError) as exc:
        outcome = dict(failed=True, k_hat=None, h=None, z=None, z_plugin=None,
                       ci_covers=None, error=str(exc))
    return ReplicationResult(n=n, index=index, u_count=u, tilde_k=tk, **outcome)


def _aggregate(n: int, results: list[ReplicationResult]) -> NormalityReport:
    ok = [r for r in results if not r.failed]
    if not ok:
        raise ExperimentError(f"all {len(results)} replications failed for n = {n}")
    # moments come from the sorted z list, so completion order is irrelevant
    zs = np.sort(np.array([r.z for r in ok]))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(zs.mean())
        var = float(zs.var(ddof=1)) if zs.size > 1 else 0.0
    if not (math.isfinite(mean) and math.isfinite(var)):
        raise ExperimentError(f"the mean or variance of z overflows for n = {n}")
    coverage = sum(1 for r in ok if r.ci_covers) / len(ok)
    return NormalityReport(
        n=n,
        count=len(ok),
        mean_z=mean,
        var_z=var,
        ks_distance=ks_distance(zs),
        coverage=coverage,
        failures=len(results) - len(ok),
    )


def run_experiment(spec: ExperimentSpec, max_workers: int = 1) -> ExperimentResult:
    """All replications for every n. Replications are independent tasks, so
    any degree of parallelism produces the identical result. They do no I/O,
    so at most one thread per usable core is started."""
    tasks = [(n, i) for n in spec.n_list for i in range(spec.replications)]
    workers = min(max_workers, len(tasks), _usable_cores())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda t: run_replication(spec, *t), tasks))
    else:
        results = [run_replication(spec, n, i) for n, i in tasks]
    reports = {
        n: _aggregate(n, [r for r in results if r.n == n]) for n in spec.n_list
    }
    return ExperimentResult(replications=tuple(results), reports=reports)


def qq_points(zs) -> list[tuple[float, float]]:
    """(theoretical, empirical) normal quantile pairs at positions (i - 1/2)/m."""
    z = np.sort(np.asarray(zs, dtype=float).ravel())
    m = z.size
    if m == 0:
        raise ValueError("need at least one value")
    return [(normal_quantile((i - 0.5) / m), float(z[i - 1])) for i in range(1, m + 1)]


def replications_csv(results) -> str:
    """One record per replication; floats as shortest round-trip decimals."""
    lines = ["n,index,k_hat,h,z,z_plugin,covers,failed"]
    for r in results:
        if r.failed:
            lines.append(f"{r.n},{r.index},,,,,,true")
        else:
            covers = "true" if r.ci_covers else "false"
            lines.append(
                f"{r.n},{r.index},{r.k_hat},{r.h!r},{r.z!r},{r.z_plugin!r},{covers},false"
            )
    return "\n".join(lines) + "\n"


def aggregate_json(reports: dict[int, NormalityReport]) -> str:
    return json.dumps([rep.to_dict() for rep in reports.values()], indent=2) + "\n"


def qq_csv(result: ExperimentResult) -> str:
    lines = ["n,theoretical_quantile,empirical_quantile"]
    for n in result.reports:
        zs = [r.z for r in result.replications if r.n == n and not r.failed]
        for theo, emp in qq_points(zs):
            lines.append(f"{n},{theo!r},{emp!r}")
    return "\n".join(lines) + "\n"
