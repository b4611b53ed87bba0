"""What the command line needs before it knows its subcommand, and all that
`trunctail diagnose` runs: one helper per parameter rule, the adaptive
parameters, the errors that map to exit codes, the usable-core count, and
the exponent windows of the growth conditions.

Nothing here imports numpy, so `diagnose` starts without it. The public
modules re-export these names; diagnostics' docstring states the growth
conditions that report_for_parameters classifies.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
from dataclasses import dataclass

# default CI level of estimate, ExperimentSpec and the CLI
_LEVEL = 0.95

_MAX_SEED = 2**64

# numpy's largest array length, np.iinfo(np.intp).max, which is Py_ssize_t's
# largest value; a larger n could not be held or drawn
_MAX_N = sys.maxsize

HOLDS = "holds"
FAILS = "fails"
BOUNDARY = "boundary"

# exponent equalities within this relative tolerance classify as boundary
_REL_TOL = 1e-12


class DegenerateSampleError(ValueError):
    """The sample carries no usable tail information (zero maximum, zero
    order statistic where a log is needed, or an all-equal top)."""


class InsufficientTailDataError(ValueError):
    """The adaptive count came out below 2, so there is no log-spacing set."""


class ExperimentError(RuntimeError):
    """Every replication failed; no aggregate can be formed."""


def _numpy_scalars(kind: str) -> tuple:
    """numpy's abstract scalar type of that name ('integer' or 'floating'),
    or nothing while numpy is not imported, when no value can be one."""
    np = sys.modules.get("numpy")
    return (getattr(np, kind),) if np is not None else ()


def _is_int(x) -> bool:
    """A Python or numpy integer; bool is excluded though it subclasses int."""
    return isinstance(x, (int, *_numpy_scalars("integer"))) and not isinstance(x, bool)


def _shown(value, form=repr) -> str:
    """form(value), or for an int with more digits than str() converts
    (sys.get_int_max_str_digits) its digit count, worded as the command line
    words a spec integer that it refuses."""
    try:
        return form(value)
    except ValueError:
        from decimal import Decimal  # converts an int of any length

        return f"integer of {Decimal(value).adjusted() + 1} digits"


def _require_positive(name: str, value: float) -> float:
    """The rule for alpha, delta, scales and rates: positive and finite, numpy
    reals included but not bools. Returns the value as a Python float, so no
    later arithmetic runs in a narrower numpy type."""
    if not ((_is_int(value) or isinstance(value, (float, *_numpy_scalars("floating")))) and value > 0):
        raise ValueError(f"{name} must be positive, got {_shown(value)}")
    with contextlib.suppress(OverflowError):  # an int past the largest double
        if math.isfinite(value):
            return float(value)
    raise ValueError(f"{name} must be positive and finite, got {_shown(value)}")


def _reciprocal(name: str, value: float) -> float:
    """1/value for a value that _require_positive passes, refused where it overflows."""
    inverse = 1.0 / _require_positive(name, value)
    if not math.isfinite(inverse):
        raise ValueError(f"1/{name} overflows: {name} = {_shown(value)}")
    return inverse


def _check_n(n: int) -> None:
    if not (_is_int(n) and 1 <= n <= _MAX_N):
        raise ValueError(f"n must be an integer with n >= 1 and n <= {_MAX_N}, got {_shown(n)}")


def _check_seed(seed: int, name: str = "seed") -> None:
    if not (_is_int(seed) and 0 <= seed < _MAX_SEED):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {_shown(seed)}")


def _check_unit(name: str, value: float) -> float:
    """The rule for beta, gamma and the CI level: strictly inside (0, 1).
    Returns the value as a Python float, so no later arithmetic runs in a
    narrower numpy type."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {_shown(value, str)}")
    return float(value)


def _check_level(level: float) -> float:
    """The CI level's rule: in (0, 1), with the quantile's argument
    0.5 * (1 + level) below 1, which the largest double below 1 misses.
    Returns the level as a Python float."""
    level = _check_unit("level", level)
    if not 0.5 * (1.0 + level) < 1.0:
        raise ValueError(f"level must be at most 1 - 2**-52, got {level}")
    return level


@dataclass(frozen=True)
class AdaptiveParams:
    """Count exponent beta and threshold fraction gamma, both strictly in (0, 1).

    The defaults are a reasonable starting point for tail indices >= 1 with a
    strongly negative second-order exponent; run the diagnostics before
    trusting them on real data.
    """

    beta: float = 0.7
    gamma: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "beta", _check_unit("beta", self.beta))
        object.__setattr__(self, "gamma", _check_unit("gamma", self.gamma))


def _usable_cores() -> int:
    """The cores this process may run on: its affinity mask where the
    platform has one, so that taskset and container masks count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
            raise ValueError(f"rho must be negative, got {_shown(rho, str)}")
        lo = max(lo, 1.0 / (1.0 - rho))
    return (lo, 1.0) if lo < 1.0 else None


def delta_feasible_range(alpha: float, beta: float) -> tuple[float, float]:
    """Open delta window (1/(alpha*(2 - beta)), 1/alpha); nonempty for beta < 1."""
    alpha = _require_positive("alpha", alpha)
    beta = _check_unit("beta", beta)
    return (1.0 / (alpha * (2.0 - beta)), _reciprocal("alpha", alpha))


def report_for_parameters(alpha: float, rho: float | None, beta: float, delta: float) -> AssumptionReport:
    """Classify the growth conditions from the exponents alone.

    rho is the second-order exponent, or None for a first-order exact tail.
    Scale-free: the threshold constant A never enters the verdicts.
    """
    alpha = _require_positive("alpha", alpha)
    delta = _require_positive("delta", delta)
    beta = _check_unit("beta", beta)
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
