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
import sys
from dataclasses import dataclass

from .distributions import _reciprocal, _require_positive
from .estimator import AdaptiveParams, SampleData, _adopt, _check_unit, v_count

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

    def to_dict(self) -> dict:
        lo, hi = self.beta_window if self.beta_window is not None else (None, None)
        return {
            "b_holds": self.b_holds,
            "c_holds": self.c_holds,
            "beta_window_lo": lo,
            "beta_window_hi": hi,
            "rho_ok": self.rho_condition,
            "notes": list(self.notes),
        }


def _verdict(value: float, holds: bool) -> str:
    """Verdict on an exponent condition whose critical value is 1."""
    if math.isclose(value, 1.0, rel_tol=_REL_TOL):
        return BOUNDARY
    return HOLDS if holds else FAILS


def beta_feasible_range(alpha: float, rho: float | None) -> tuple[float, float] | None:
    """Open beta window (max(1 - 1/alpha, 0, 1/(1 - rho)), 1); None if empty.

    rho None means a first-order exact tail, which drops the 1/(1 - rho) term.
    """
    alpha = _require_positive("alpha", alpha)
    lo = max(1.0 - 1.0 / alpha, 0.0)
    if rho is not None:
        if not rho < 0.0:
            raise ValueError(f"rho must be negative, got {rho}")
        lo = max(lo, 1.0 / (1.0 - rho))
    return (lo, 1.0) if lo < 1.0 else None


def delta_feasible_range(alpha: float, beta: float) -> tuple[float, float]:
    """Open delta window (1/(alpha*(2 - beta)), 1/alpha); nonempty for beta < 1."""
    alpha = _require_positive("alpha", alpha)
    _check_unit("beta", beta)
    return (1.0 / (alpha * (2.0 - beta)), _reciprocal("alpha", alpha))


def report_for_parameters(alpha: float, rho: float | None, beta: float, delta: float) -> AssumptionReport:
    """Classify the growth conditions from the exponents alone.

    rho is the second-order exponent, or None for a first-order exact tail.
    Scale-free: the threshold constant A never enters the verdicts.
    """
    alpha = _require_positive("alpha", alpha)
    delta = _require_positive("delta", delta)
    _check_unit("beta", beta)
    ad = alpha * delta
    adb = ad * (2.0 - beta)
    if not math.isfinite(adb):
        raise ValueError(
            f"alpha*delta*(2-beta) overflows: alpha = {alpha!r}, delta = {delta!r}"
        )
    b = _verdict(ad, ad < 1.0)
    c = _verdict(adb, adb > 1.0)
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
        notes.append(f"alpha*delta*(2-beta) = {adb:g} <= 1: threshold grows too slowly")
    window = beta_feasible_range(alpha, rho)
    if rho is None:
        rho_ok = None
        notes.append("first-order exact tail: no second-order constraint on beta")
    else:
        bound = -(1.0 - beta) / beta  # overflows to -inf at a subnormal beta, where only rho = -inf is below it
        rho_ok = rho < bound or rho == -math.inf
        if not rho_ok:
            shown = f"= {bound:g}" if math.isfinite(bound) else f"< {-sys.float_info.max:g}"
            notes.append(f"rho = {rho:g} is not below -(1-beta)/beta {shown}")
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
    """``report_for_parameters`` with alpha and rho read from a tail model."""
    return report_for_parameters(model.alpha, model.rho, beta, trunc.delta)


def sample_c_statistic(sample: SampleData, params: AdaptiveParams) -> float:
    """n * (V_n/n)**(2 - beta) * (log X_(1))**2, the observable stand-in for
    the vanishing condition, with the sample maximum proxying the threshold.

    Not scale-invariant: rescaling the sample by c replaces log X_(1) with
    log(c * X_(1)) while leaving V_n unchanged.
    """
    v = v_count(sample, params.gamma)
    n = sample.n
    return float(n * (v / n) ** (2.0 - params.beta) * math.log(sample.maximum) ** 2)


@dataclass(frozen=True)
class CStatisticTrend:
    """The statistic on nested sample prefixes plus a coarse trend label."""

    sizes: tuple[int, ...]
    values: tuple[float, ...]
    label: str


def c_statistic_trend(sample: SampleData, params: AdaptiveParams) -> CStatisticTrend:
    """Evaluate the statistic on prefixes of length n/4, n/2, n (insertion order).

    Advisory only: the underlying claim is a limit with no finite-n cutoff,
    so the label reports direction, never pass/fail.
    """
    n = sample.n
    if n < 4:
        raise ValueError(f"need n >= 4 for a prefix trend, got {n}")
    sizes = sorted({n // 4, n // 2, n})
    # prefixes of a checked sample need no copy and no second check
    values = [sample_c_statistic(_adopt(sample.values[:m]), params) for m in sizes]
    decreasing = all(later < earlier for earlier, later in zip(values, values[1:]))
    return CStatisticTrend(
        sizes=tuple(sizes),
        values=tuple(values),
        label=DECREASING if decreasing else NOT_DECREASING,
    )
