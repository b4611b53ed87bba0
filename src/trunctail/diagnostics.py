"""Validity windows for the truncation growth exponents, and the sample
statistic that should vanish when the threshold grows fast enough.

For a tail decaying like x**(-alpha) along M_n = A * n**delta, the two
growth conditions reduce to exponent inequalities:

* truncated regime, n * P(H > M_n) -> inf      iff  alpha*delta < 1;
* vanishing rate, n * P(H > M_n)**(2 - beta) * (log M_n)**2 -> 0
                                               iff  alpha*delta*(2 - beta) > 1.

Both are strict: at equality the first stalls at a constant and the second
is blown up by the squared logarithm, so boundaries count as failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .estimator import AdaptiveParams, DegenerateSampleError, SampleData, v_count

__all__ = [
    "HOLDS",
    "FAILS",
    "BOUNDARY",
    "DECREASING",
    "NOT_DECREASING",
    "AssumptionReport",
    "CStatisticTrend",
    "check_assumptions",
    "report_for_parameters",
    "beta_feasible_range",
    "delta_feasible_range",
    "sample_c_statistic",
    "c_statistic_trend",
]

HOLDS = "holds"
FAILS = "fails"
BOUNDARY = "boundary"

DECREASING = "decreasing"
NOT_DECREASING = "not decreasing"

# exponent equalities within this relative tolerance classify as boundary
_REL_TOL = 1e-12


@dataclass(frozen=True)
class AssumptionReport:
    """Verdicts on the growth conditions plus the feasible beta window."""

    b_holds: str
    c_holds: str
    beta_window: tuple[float, float] | None
    rho_condition: bool | None
    notes: tuple[str, ...] = ()
    c_statistic: float | None = None
    c_trend: str | None = None

    def to_dict(self) -> dict:
        lo, hi = self.beta_window if self.beta_window is not None else (None, None)
        return {
            "b_holds": self.b_holds,
            "c_holds": self.c_holds,
            "beta_window_lo": lo,
            "beta_window_hi": hi,
            "rho_ok": self.rho_condition,
            "c_statistic": self.c_statistic,
            "c_trend": self.c_trend,
            "notes": list(self.notes),
        }


def _verdict_below(value: float, critical: float) -> str:
    if math.isclose(value, critical, rel_tol=_REL_TOL):
        return BOUNDARY
    return HOLDS if value < critical else FAILS


def _verdict_above(value: float, critical: float) -> str:
    if math.isclose(value, critical, rel_tol=_REL_TOL):
        return BOUNDARY
    return HOLDS if value > critical else FAILS


def beta_feasible_range(alpha: float, rho: float) -> tuple[float, float] | None:
    """Open beta window (max(1 - 1/alpha, 0, 1/(1 - rho)), 1); None if empty."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not rho < 0.0:
        raise ValueError(f"rho must be negative, got {rho}")
    lo = max(1.0 - 1.0 / alpha, 0.0, 1.0 / (1.0 - rho))
    return (lo, 1.0) if lo < 1.0 else None


def delta_feasible_range(alpha: float, beta: float) -> tuple[float, float]:
    """Open delta window (1/(alpha*(2 - beta)), 1/alpha); nonempty for beta < 1."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    return (1.0 / (alpha * (2.0 - beta)), 1.0 / alpha)


def _build_report(alpha: float, rho: float | None, delta: float, beta: float) -> AssumptionReport:
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    ad = alpha * delta
    b = _verdict_below(ad, 1.0)
    c = _verdict_above(ad * (2.0 - beta), 1.0)
    notes: list[str] = []
    if b == BOUNDARY:
        notes.append(
            "alpha*delta = 1 exactly: n*P(H > M_n) stalls instead of diverging"
        )
    elif b == FAILS:
        notes.append(f"alpha*delta = {ad:g} >= 1: not in the truncated regime")
    if c == BOUNDARY:
        notes.append(
            "alpha*delta*(2-beta) = 1 exactly: the squared-log factor diverges,"
            " so the vanishing condition fails"
        )
    elif c == FAILS:
        notes.append(
            f"alpha*delta*(2-beta) = {ad * (2.0 - beta):g} <= 1: threshold grows too slowly"
        )
    if rho is None:
        lo = max(1.0 - 1.0 / alpha, 0.0)
        window = (lo, 1.0) if lo < 1.0 else None
        rho_ok = None
        notes.append("first-order exact tail: no second-order constraint on beta")
    else:
        window = beta_feasible_range(alpha, rho)
        rho_ok = rho < -(1.0 - beta) / beta
        if not rho_ok:
            notes.append(
                f"rho = {rho:g} is not below -(1-beta)/beta = {-(1.0 - beta) / beta:g}"
            )
    if window is not None and not window[0] < beta < window[1]:
        notes.append(f"beta = {beta:g} sits outside the feasible window ({window[0]:g}, 1)")
    return AssumptionReport(
        b_holds=b,
        c_holds=c,
        beta_window=window,
        rho_condition=rho_ok,
        notes=tuple(notes),
    )


def check_assumptions(model, trunc, beta: float) -> AssumptionReport:
    """Classify the growth conditions for a parametric tail and threshold rule.

    Scale-free: only the exponents alpha, delta, beta (and the model's rho,
    when it has one) enter the verdicts.
    """
    return _build_report(model.alpha, model.rho, trunc.delta, beta)


def report_for_parameters(alpha: float, rho: float, beta: float, delta: float) -> AssumptionReport:
    """Same report when alpha and rho are given directly instead of via a model."""
    if not rho < 0.0:
        raise ValueError(f"rho must be negative, got {rho}")
    return _build_report(alpha, rho, delta, beta)


def sample_c_statistic(sample: SampleData, params: AdaptiveParams) -> float:
    """n * (V_n/n)**(2 - beta) * (log X_(1))**2, the observable stand-in for
    the vanishing condition, with the sample maximum proxying the threshold.

    Not scale-invariant: rescaling the sample by c replaces log X_(1) with
    log(c * X_(1)) while leaving V_n unchanged.
    """
    x1 = sample.maximum
    if x1 <= 0.0:
        raise DegenerateSampleError("sample maximum is 0")
    v = v_count(sample, params.gamma)
    n = sample.n
    return float(n * (v / n) ** (2.0 - params.beta) * math.log(x1) ** 2)


@dataclass(frozen=True)
class CStatisticTrend:
    """The statistic on nested sample prefixes plus a coarse trend label."""

    sizes: tuple[int, ...]
    values: tuple[float, ...]
    label: str

    def attach(self, report: AssumptionReport) -> AssumptionReport:
        """Copy the full-sample value and trend label into a report."""
        return replace(report, c_statistic=self.values[-1], c_trend=self.label)


def c_statistic_trend(sample: SampleData, params: AdaptiveParams) -> CStatisticTrend:
    """Evaluate the statistic on prefixes of length n/4, n/2, n (insertion order).

    Advisory only: the underlying claim is a limit with no finite-n cutoff,
    so the label reports direction, never pass/fail.
    """
    n = sample.n
    if n < 4:
        raise ValueError(f"need n >= 4 for a prefix trend, got {n}")
    sizes = sorted({n // 4, n // 2, n})
    values = [
        sample_c_statistic(SampleData(sample.values[:m]), params) for m in sizes
    ]
    decreasing = all(later < earlier for earlier, later in zip(values, values[1:]))
    return CStatisticTrend(
        sizes=tuple(sizes),
        values=tuple(values),
        label=DECREASING if decreasing else NOT_DECREASING,
    )
