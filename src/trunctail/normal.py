"""Standard normal CDF, quantile, and one-sample Kolmogorov-Smirnov distance."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normal_cdf", "normal_pdf", "normal_quantile", "ks_distance"]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_cdf(x: float) -> float:
    """Phi(x) through erfc; accurate to a few ulp over the whole real line."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


# Rational initial guess for the quantile (Acklam's approximation, about
# 1e-9 relative error), polished with Newton steps against the erfc CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _quantile_guess(p: float) -> float:
    if p < _P_LOW or p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
        return x if p < 0.5 else -x
    q = p - 0.5
    r = q * q
    return ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
            / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))


def normal_quantile(p: float) -> float:
    """x with Phi(x) = p; machine precision away from the extreme tails."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    x = _quantile_guess(p)
    for _ in range(2):
        d = normal_pdf(x)
        if d <= 1e-300:
            break  # Phi is flat here in double precision; the guess stands
        x -= (normal_cdf(x) - p) / d
    return x


def ks_distance(zs) -> float:
    """Two-sided KS distance between the empirical law of zs and N(0, 1)."""
    z = np.sort(np.asarray(zs, dtype=float).ravel())
    m = z.size
    if m == 0:
        raise ValueError("need at least one value")
    cdf = np.array([normal_cdf(v) for v in z])
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(np.maximum(np.abs(hi - cdf), np.abs(lo - cdf)).max())
