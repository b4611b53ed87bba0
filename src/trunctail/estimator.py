"""Order statistics, the Hill statistic, and the sample-adaptive count of
top order statistics, with normal-limit confidence intervals."""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass

import numpy as np

from ._params import (
    _LEVEL,
    AdaptiveParams,
    DegenerateSampleError,
    InsufficientTailDataError,
    _check_level,
    _check_unit,
    _is_int,
    _shown,
)
from .normal import normal_quantile

__all__ = [
    "DegenerateSampleError",
    "InsufficientTailDataError",
    "SampleData",
    "AdaptiveParams",
    "HillEstimate",
    "hill_statistic",
    "v_count",
    "adaptive_k",
    "u_count",
    "tilde_k",
    "estimate",
    "hill_curve",
]


class _TailTooShort(Exception):
    """A sample that holds only its top was asked about a level at or below
    its floor, so the answer needs values it does not hold."""


class SampleData:
    """Nonnegative sample of size n with its maximum and on-demand order statistics.

    ``values`` keeps insertion order, read-only, and ``maximum`` is X_(1);
    ``top(k)[i]`` is the (i+1)-th largest value. The sample keeps a working
    copy of its values, in one block with them when it is built from them,
    whose last ``_sorted`` entries are its ``_sorted`` largest, ascending:
    ``top(k)`` for k within them is a view of that sorted tail, and a larger
    k partitions the values below it once and sorts the new block, growing
    the tail to at least the top eighth and at least double: reading one
    sample at many k sorts each value at most once, and at every k up to n/8
    partitions all n values once. ``count_above`` answers from the sorted
    tail when the level is within it. The sample is fully sorted only if a
    caller asks for ``ordered``. Threads may share a sample: a lock
    serialises the extensions.

    ``values`` holds every value of the sample above ``floor``. A sample built
    from its values holds them all and has ``floor = -inf``; the replication
    harness also builds samples that hold only their top, and a count or an
    order statistic that would reach down to their floor raises
    ``_TailTooShort`` instead of answering.
    """

    __slots__ = ("values", "maximum", "n", "floor", "_work", "_sorted", "_lock")

    def __init__(self, values):
        given = np.asarray(values, dtype=float)
        if given.ndim != 1 or given.size == 0:
            raise ValueError("sample must be a nonempty one-dimensional array")
        n = given.size
        # One block holds the values and, from the first extension on, their
        # working copy. glibc returns the top of its heap to the OS once more
        # than twice the largest block it has unmapped is free there: freeing
        # the two halves as separate blocks crossed that line, so each sample
        # built after a scanned one faulted all its pages in again.
        buf = np.empty(2 * n)
        arr = buf[:n]
        arr[...] = given
        # min and max propagate NaN, so both bounds hold only for finite,
        # nonnegative values; a refused sample pays for picking the message
        lo, hi = float(arr.min()), float(arr.max())
        if not (lo >= 0.0 and hi < math.inf):
            if not np.all(np.isfinite(arr)):
                raise ValueError("sample values must be finite")
            raise ValueError("sample values must be nonnegative")
        self._hold(arr, n, -math.inf, hi)
        self._work = buf[n:]

    def _hold(self, values: np.ndarray, n: int, floor: float, maximum: float) -> None:
        # read-only, so no write can leave the sorted tail stale
        values.flags.writeable = False
        self.values = values
        self._work = None
        self._sorted = 0
        self._lock = threading.Lock()
        self.n = n
        self.floor = floor
        self.maximum = maximum
        if not maximum > floor:
            raise _TailTooShort(f"no value above the floor {floor!r}")

    def count_above(self, level: float) -> int:
        """Strict count of values above level."""
        if level <= self.floor:
            raise _TailTooShort(f"level {level!r} is not above the floor {self.floor!r}")
        cached = self._sorted
        if cached:
            tail = self._work[self._work.size - cached:]
            if level >= tail[0]:
                # no value below the sorted tail exceeds its smallest entry
                return cached - int(np.searchsorted(tail, level, side="right"))
        return int(np.count_nonzero(self.values > level))

    def top(self, k: int) -> np.ndarray:
        """The k largest values in descending order, as a read-only array."""
        if not (_is_int(k) and 1 <= k <= self.n):
            raise ValueError(f"k must be in [1, {self.n}] and an integer, got {_shown(k, str)}")
        size = self.values.size
        if k > size:
            raise _TailTooShort(f"k = {k} exceeds the {size} values held")
        if k > self._sorted:
            with self._lock:
                if k > self._sorted:
                    self._sort_tail(k)
        top = self._work[size - k:][::-1]
        if top[-1] <= self.floor:
            raise _TailTooShort(f"X_({k}) is not above the floor {self.floor!r}")
        top.flags.writeable = False
        return top

    def _sort_tail(self, k: int) -> None:
        """Extend the sorted tail to at least the k largest values; the caller
        holds the lock. Returned views of the tail stay valid, since only
        values below it move, and _sorted grows only once the new block is
        sorted."""
        if self._work is None:
            self._work = self.values.copy()
        elif not self._sorted:
            self._work[...] = self.values
        size = self._work.size
        # Sorting ahead bounds the partitions of the values below the tail:
        # the first extension sorts at least the top eighth, and each later
        # one at least doubles the tail.
        k = min(size, max(k, 2 * self._sorted, size // 8))
        rest = self._work[: size - self._sorted]
        rest.partition(size - k)
        rest[size - k:].sort()
        self._sorted = k

    @property
    def ordered(self) -> np.ndarray:
        """All n values in descending order."""
        return self.top(self.n)

    def __repr__(self) -> str:
        return f"SampleData(n={self.n}, max={self.maximum!r})"


def _adopt(values: np.ndarray, n: int | None = None, floor: float = -math.inf) -> SampleData:
    """SampleData over ``values`` itself, unchecked, for float arrays that are
    finite and nonnegative by construction and hold every value of the size-n
    sample above ``floor``."""
    sample = SampleData.__new__(SampleData)
    maximum = float(values.max()) if values.size else floor
    sample._hold(values, values.size if n is None else n, floor, maximum)
    return sample


@dataclass(frozen=True)
class HillEstimate:
    """Point estimate of 1/alpha with a symmetric normal-limit CI on that scale."""

    n: int
    k_hat: int
    h: float
    alpha_hat: float
    se: float
    ci_lo: float
    ci_hi: float
    level: float
    v_count: int

    @property
    def alpha_ci(self) -> tuple[float, float]:
        """Interval for alpha itself: [1/ci_hi, 1/ci_lo]."""
        return 1.0 / self.ci_hi, 1.0 / self.ci_lo

    def to_dict(self) -> dict:
        return asdict(self)


def hill_statistic(sample: SampleData, k: int) -> float:
    """h(k, n): mean of log(X_(i)/X_(k)) over the top k order statistics.

    The i = k term contributes exactly zero; the result is nonnegative.
    """
    top = sample.top(k)
    xk = top[-1]
    if xk <= 0.0:
        raise DegenerateSampleError(f"X_({k}) = 0; log ratios are undefined")
    with np.errstate(over="ignore"):
        ratios = top / xk
        h = float(np.log(ratios, out=ratios).mean())
    if not math.isfinite(h):
        raise DegenerateSampleError(f"X_(1)/X_({k}) = {float(top[0])!r}/{float(xk)!r} overflows")
    return h


def u_count(sample: SampleData, gamma: float, m: float) -> int:
    """Strict count of values above gamma * m: V_n at m = X_(1), U_n at a known M_n."""
    gamma = _check_unit("gamma", gamma)
    if not m > 0.0:
        raise ValueError(f"m must be positive, got {m}")
    return sample.count_above(gamma * m)


def v_count(sample: SampleData, gamma: float) -> int:
    """Strict count V_n of values above gamma * X_(1); at least 1 since gamma < 1."""
    if sample.maximum <= 0.0:
        raise DegenerateSampleError("sample maximum is 0")
    return u_count(sample, gamma, sample.maximum)


def adaptive_k(sample: SampleData, params: AdaptiveParams) -> int:
    """Integer part of n * (V_n/n)**beta with V_n the count above gamma * X_(1)."""
    return tilde_k(sample.n, v_count(sample, params.gamma), params.beta)


def tilde_k(n: int, u: int, beta: float) -> int:
    """Integer part of n**(1-beta) * u**beta: k-hat from V_n, k-tilde from U_n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {_shown(n, str)}")
    if not 0 <= u <= n:
        raise ValueError(f"u must be in [0, {_shown(n, str)}], got {_shown(u, str)}")
    beta = _check_unit("beta", beta)
    # computed as n * (u/n)**beta so u == n lands exactly on n
    return int(math.floor(n * (u / n) ** beta))


def estimate(
    sample: SampleData,
    params: AdaptiveParams | None = None,
    level: float = _LEVEL,
    k: int | None = None,
) -> HillEstimate:
    """Hill estimate at the adaptive count (or a forced k), with CI
    h +/- z * h/sqrt(k) from the sqrt(k)-rate normal limit.

    The interval is symmetric on the h = 1/alpha scale; ``alpha_ci`` maps it
    to the alpha scale. A forced k skips the adaptive choice entirely.
    """
    if params is None:
        params = AdaptiveParams()
    level = _check_level(level)
    # the first extension sorts at least the top eighth, which holds the
    # level whenever V < n/8, so V is a binary search there, not a pass
    sample.top(1)
    v = v_count(sample, params.gamma)
    if k is None:
        k = tilde_k(sample.n, v, params.beta)
        if k < 2:
            raise InsufficientTailDataError(
                f"adaptive count k = {k} (V = {v}, n = {sample.n}); need k >= 2 -- "
                "the observed tail is too thin for these (beta, gamma)"
            )
    elif not (_is_int(k) and 2 <= k <= sample.n):
        raise ValueError(f"forced k must be in [2, {sample.n}] and an integer, got {_shown(k, str)}")
    h = hill_statistic(sample, k)
    if h <= 0.0:
        raise DegenerateSampleError(
            "top order statistics are all equal; h = 0 gives a degenerate CI"
        )
    se = h / math.sqrt(k)
    z = normal_quantile(0.5 * (1.0 + level))
    return HillEstimate(
        n=sample.n,
        k_hat=k,
        h=h,
        alpha_hat=1.0 / h,
        se=se,
        ci_lo=h - z * se,
        ci_hi=h + z * se,
        level=level,
        v_count=v,
    )


def hill_curve(sample: SampleData, k_min: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (ks, hs) with hs[i] = h(ks[i], n) for every k in [k_min, k_max],
    from one prefix-sum pass, O(k_max)."""
    n = sample.n
    if not (_is_int(k_min) and _is_int(k_max) and 1 <= k_min <= k_max <= n):
        raise ValueError(f"need integers with 1 <= k_min <= k_max <= {n}, "
                         f"got [{_shown(k_min, str)}, {_shown(k_max, str)}]")
    top = sample.top(k_max)
    if top[-1] <= 0.0:
        raise DegenerateSampleError(f"X_({k_max}) = 0; log ratios are undefined")
    logs = np.log(top)
    prefix = np.cumsum(logs)
    ks = np.arange(k_min, k_max + 1)
    hs = prefix[k_min - 1:] / ks - logs[k_min - 1:]
    return ks, hs
