"""repr's text of float64 values, formatted a block at a time.

repr_lines(values) returns "\\n".join(map(repr, values.tolist())) + "\\n" byte
for byte. CPython's repr writes the shortest decimal that reads back as the
same double and, of those, the one nearest to it (Steele & White 1990; Gay
1990). Where repr writes no exponent, this module finds those digits for a
whole block of values with exact integer arithmetic; it calls repr for the
values it cannot certify.

The fast path takes a positive normal x = M * 2**E, 2**52 <= M < 2**53, whose
mantissa field is nonzero: the doubles next to it then lie 2**E away on both
sides (a power of two has a lower gap half its upper one). With e10 =
floor(log10 x) in [-4, 15], repr's fixed-notation range, let q = 16 - e10 and
t = -(E + q). Then N = x * 10**q = M * 5**q / 2**t lies in [10**16, 10**17),
and repr's digits are those of an integer c near N.
- Exact: 5**q < 2**47 for q <= 20, so P = M * 5**q < 2**100 is held in two
  uint64 limbs. For t >= 0, floor(N) = P >> t and N's fraction is
  (P mod 2**t) / 2**t.
- Interval: a decimal reads back as x when it lies within half a gap of x,
  that is within w = 5**q / 2**(t+1) of N. float() keeps an end when M is
  even, rounding the tie to even, but no integer lies on an end: the
  numerators 2P -+ 5**q over 2**(t+1) are odd. So the integers that read
  back are those in (floor(N - w), floor(N + w)]. N has 53 significant bits,
  so 0.55 < w < 11.1.
- Digits: repr's string is the multiple of 10**j nearest to N for the
  largest j with a multiple of 10**j in that interval. The nearest multiple
  is then in it too, since the interval is symmetric about N, and c has
  exactly j trailing zeros. At j = 0 the nearest integer is always in it
  (w > 1/2). For j >= 2 the interval, shorter than 23, holds at most one
  multiple, which is the nearest; j = 0 and 1 round N to the nearest.

These values go through repr: zero, negatives, subnormals, powers of two,
inf and nan; values below 1e-4 or from 2**52 up, where repr writes an
exponent or t < 0; a log10 guess of e10 that puts floor(N) outside
[10**16, 10**17); an exact tie between two nearest candidates; and a c that
carries to 10**17. Every scalar next to a uint64 array is a np.uint64, so
numpy 1.24's value-based promotion gives the same dtypes as numpy 2.

The text of a block is cut from one row of bytes per value. The row holds
seven zeros and c's 17 digits, from 4-digit tables; the digits up to that of
10**0 move one column left, into a zero, and the point takes the column
they leave. The line runs from the first digit of the integer part, or the
one 0 before the point, to the last nonzero fraction digit, keeping at
least one, and ends in a newline. A row of a value that fell back holds
repr's line instead, at most 25 bytes.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_ONE = _U(1)
_ZERO = _U(0)
_LOW32 = _U(2**32 - 1)
_FRACTION = _U(2**52 - 1)
_HIDDEN = _U(2**52)
_POW5 = _U(5) ** np.arange(21, dtype=np.uint64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U(32)

# Values per block: the block's arrays stay in cache, and allocating them
# again does not fault in fresh pages.
_BLOCK = 2**13
_WIDTH = 25  # bytes per row: 24 for the digits and the point, 1 for the newline


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII of 0000-9999 as uint32 words, and the columns of a line:
    per (e10 + 4) * 17 + j for a certified value, or per _SPANS + length for
    a row that holds repr's line."""
    d = np.arange(10000)
    digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")
    groups = digits.astype(np.uint8).view(np.uint32).ravel()
    e10 = np.arange(-4, 16)[:, None, None]
    j = np.arange(17)[None, :, None]
    col = np.arange(_WIDTH)
    spans = (col >= 6 + np.minimum(e10, 0)) & (col <= np.maximum(24 - j, 9 + e10))
    prefixes = col < np.arange(_WIDTH + 1)[:, None]
    return groups, np.concatenate([spans.reshape(-1, _WIDTH), prefixes])


_GROUPS, _COLUMNS = _tables()
_SPANS = 20 * 17


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """c, e10, j and the mask of certified values, for a float64 block."""
    ok = (x >= 1e-4) & ((x.view(np.uint64) & _FRACTION) != _ZERO)
    x = np.where(ok, x, 1.5)
    bits = x.view(np.uint64)
    e10 = np.clip(np.floor(np.log10(x)), -4, 15).astype(np.int64)
    q = 16 - e10
    t = 1075 - (bits >> _U(52)).astype(np.int64) - q
    ok &= t >= 0
    t = np.maximum(t, 0).astype(np.uint64)
    m = (bits & _FRACTION) | _HIDDEN
    m_lo, m_hi = m & _LOW32, m >> _U(32)
    p_lo, p_hi = _POW5_LO[q], _POW5_HI[q]
    low = m_lo * p_lo
    mid = m_lo * p_hi + m_hi * p_lo
    lo = low + (mid << _U(32))
    hi = m_hi * p_hi + (mid >> _U(32)) + (lo < low)
    n = ((hi << _ONE) << (_U(63) - t)) | (lo >> t)  # floor(N)
    ok &= (n >= _U(10**16)) & (n < _U(10**17))
    t1 = t + _ONE
    fraction = (lo << _ONE) & ((_ONE << t1) - _ONE)  # N - n, times 2**(t+1)
    five = _POW5[q]
    w_floor = five >> t1
    w_fraction = five & ((_ONE << t1) - _ONE)
    carry = (fraction + w_fraction) >> t1
    top = n + w_floor + carry  # floor(N + w)
    width = w_floor + w_floor + carry + (fraction < w_fraction)  # top - floor(N - w)

    half = _ONE << t
    up = n + _U(5)
    tens = up // _U(10) * _U(10)  # the multiple of 10 nearest to N, a tie rounding up
    one = top - top // _U(10) * _U(10) < width
    c = np.where(one, tens, n + (fraction > half))
    tie = np.where(one, (tens == up) & (fraction == _ZERO), fraction == half)
    j = one.astype(np.int64)
    live = np.flatnonzero(one & ok)
    top, width = top[live], width[live]
    for k in range(2, 17):
        p = _U(10**k)
        multiple = top // p * p
        inside = top - multiple < width
        live, top, width, multiple = live[inside], top[inside], width[inside], multiple[inside]
        if not live.size:
            break
        c[live] = multiple
        tie[live] = False
        j[live] = k
    ok &= ~tie & (c < _U(10**17))
    return c, e10, j, ok


def _block_lines(x: np.ndarray) -> str:
    c, e10, j, ok = _digits(x)
    size = x.size
    words = np.empty((size, 7), np.uint32)
    words[:, 0] = _GROUPS[0]
    upper = c // _U(10**8)
    lower = c - upper * _U(10**8)
    lead = upper // _U(10**8)
    words[:, 1] = _GROUPS[lead]
    for col, value in ((2, upper - lead * _U(10**8)), (4, lower)):
        high = value // _U(10**4)
        words[:, col] = _GROUPS[high]
        words[:, col + 1] = _GROUPS[value - high * _U(10**4)]
    digits = words.view(np.uint8)  # columns 0-23: seven zeros and c's digits
    point = 7 + e10  # the column of the digit of 10**0, and then of the point
    low, high = int(point.min()), int(point.max())
    # the integer part moves one column left: in every row the columns left
    # of low, and column col of [low, high) where the point lies right of it
    rows = np.empty((size, _WIDTH), np.uint8)
    rows[:, :low] = digits[:, 1:low + 1]
    rows[:, low:] = digits[:, low:_WIDTH]
    for col in range(low, high):
        np.copyto(rows[:, col], digits[:, col + 1], where=point > col)
    flat = rows.ravel()
    start = np.arange(0, size * _WIDTH, _WIDTH)
    flat[start + point] = ord(".")
    flat[start + np.maximum(24 - j, 9 + e10)] = ord("\n")
    key = (e10 + 4) * 17 + j
    fell = np.flatnonzero(~ok)
    if fell.size:
        lines = [repr(v) + "\n" for v in x[fell].tolist()]
        rows[fell] = np.frombuffer("".join(s.ljust(_WIDTH) for s in lines).encode(),
                                   np.uint8).reshape(-1, _WIDTH)
        key[fell] = _SPANS + np.array([len(s) for s in lines])
    return np.compress(_COLUMNS[key].ravel(), flat).tobytes().decode("ascii")


def repr_lines(values: np.ndarray) -> str:
    """The bytes of "\\n".join(map(repr, values.tolist())) + "\\n", for a 1-d
    float64 array of one or more values."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    return "".join([_block_lines(x[i:i + _BLOCK]) for i in range(0, x.size, _BLOCK)])


def fallback_mask(values: np.ndarray) -> np.ndarray:
    """True where repr_lines takes a value's line from repr."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    return ~np.concatenate([_digits(x[i:i + _BLOCK])[3] for i in range(0, x.size, _BLOCK)])
