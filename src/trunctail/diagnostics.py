"""Validity windows for the truncation growth exponents, and the sample
statistic that should vanish when the threshold grows fast enough.

For a tail decaying like x**(-alpha) along M_n = A * n**delta, the two
growth conditions reduce to exponent inequalities:

* truncated regime, n * P(H > M_n) -> inf      iff  alpha*delta < 1;
* vanishing rate, n * P(H > M_n)**(2 - beta) * (log M_n)**2 -> 0
                                               iff  alpha*delta*(2 - beta) > 1.

Both are strict: at equality the first stalls at a constant and the second
is blown up by the squared logarithm, so boundaries count as failures.
``design_rates`` gives these quantities in closed form for one design and n.
The exponent windows are re-exported from the numpy-free ``_params``, which
is all that ``trunctail diagnose`` imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._params import (
    BOUNDARY,
    FAILS,
    HOLDS,
    AdaptiveParams,
    AssumptionReport,
    _check_n,
    beta_feasible_range,
    check_assumptions,
    delta_feasible_range,
    report_for_parameters,
)
from .estimator import SampleData, _adopt, _TailTooShort, tilde_k, v_count

__all__ = [
    "HOLDS",
    "FAILS",
    "BOUNDARY",
    "DECREASING",
    "NOT_DECREASING",
    "AssumptionReport",
    "CStatisticTrend",
    "DesignRates",
    "check_assumptions",
    "design_rates",
    "report_for_parameters",
    "beta_feasible_range",
    "delta_feasible_range",
    "sample_c_statistic",
    "c_statistic_trend",
]

DECREASING = "decreasing"
NOT_DECREASING = "not decreasing"


@dataclass(frozen=True)
class DesignRates:
    """A design's closed-form quantities at one n."""

    threshold: float  # M_n
    expected_capped: float  # n * P(H > M_n)
    expected_u: float  # n * P(H > gamma*M_n), the mean of U_n
    oracle_k: int  # tilde_k at U_n's mean rounded up into [1, n]
    rate: float  # R(n) = n * P(H > M_n)**(2 - beta) * (log M_n)**2


def design_rates(model, trunc, params: AdaptiveParams, n: int) -> DesignRates:
    """The closed forms of a design (tail model, truncation scheme, adaptive
    parameters) at n: the truncated regime needs expected_capped -> inf, the
    normal limit needs rate -> 0, and k_hat / oracle_k -> 1."""
    _check_n(n)
    m = trunc.threshold(n)
    p = model.survival(m)
    expected_u = n * model.survival(params.gamma * m)
    return DesignRates(
        threshold=m,
        expected_capped=n * p,
        expected_u=expected_u,
        oracle_k=tilde_k(n, min(n, max(1, math.ceil(expected_u))), params.beta),
        rate=n * p ** (2.0 - params.beta) * math.log(m) ** 2,
    )


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
    so the label reports direction, never pass/fail. The prefixes need the
    whole sample in insertion order, so a sample that holds only its top
    raises _TailTooShort. The length-n prefix is the sample itself, so its
    V_n comes from the sorted tail once an earlier call has sorted that far.
    """
    if sample.floor > -math.inf:
        raise _TailTooShort(f"prefixes need the whole sample, not its top above {sample.floor!r}")
    n = sample.n
    if n < 4:
        raise ValueError(f"need n >= 4 for a prefix trend, got {n}")
    sizes = sorted({n // 4, n // 2, n})
    # shorter prefixes of a checked sample need no copy and no second check;
    # the whole one is the sample, which counts V from its sorted tail
    values = [
        sample_c_statistic(sample if m == n else _adopt(sample.values[:m]), params)
        for m in sizes
    ]
    decreasing = all(later < earlier for earlier, later in zip(values, values[1:]))
    return CStatisticTrend(
        sizes=tuple(sizes),
        values=tuple(values),
        label=DECREASING if decreasing else NOT_DECREASING,
    )
