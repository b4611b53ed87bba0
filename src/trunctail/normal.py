"""Standard normal CDF, quantile, and one-sample Kolmogorov-Smirnov distance."""

from __future__ import annotations

import math
import statistics

import numpy as np

__all__ = ["normal_cdf", "normal_quantile", "ks_distance"]

_SQRT2 = math.sqrt(2.0)
_STANDARD = statistics.NormalDist()


def normal_cdf(x: float) -> float:
    """Phi(x) through erfc; accurate to a few ulp over the whole real line."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(p: float) -> float:
    """x with Phi(x) = p, by Wichura's AS241 (statistics.NormalDist.inv_cdf)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return _STANDARD.inv_cdf(p)


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
