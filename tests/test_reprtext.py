"""The block formatter behind `trunctail simulate`: its text equals per-value
repr byte for byte, and it certifies almost every value of a study sample
without calling repr."""

from decimal import Decimal

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from trunctail import Burr, Exponential, TruncatedSampleSpec, TruncationScheme, sample_truncated
from trunctail._reprtext import _BLOCK, fallback_mask, repr_lines


def per_value_repr(values: np.ndarray) -> str:
    return "\n".join(map(repr, values.tolist())) + "\n"


def assert_same_text(values: np.ndarray) -> None:
    got, want = repr_lines(values).split("\n"), per_value_repr(values).split("\n")
    # the first value whose line differs, not a diff of the whole text
    assert [(v, a, b) for v, a, b in zip(values.tolist(), got, want) if a != b][:1] == []
    assert len(got) == len(want)


def bit_patterns(seed: int, low: float, high: float, size: int) -> np.ndarray:
    """Doubles with uniform random bit patterns between two positive doubles."""
    lo, hi = np.array([low, high]).view(np.int64)
    return np.random.default_rng(seed).integers(lo, hi, size).view(np.float64)


def test_random_bit_patterns_over_the_positive_finite_doubles():
    # most of these need an exponent, so they take repr's line
    assert_same_text(bit_patterns(1, 5e-324, np.finfo(float).max, 200_000))


def test_random_bit_patterns_over_the_fixed_notation_range():
    values = bit_patterns(2, 1e-4, 1e16, 100_000)
    assert fallback_mask(values).mean() < 0.05
    assert_same_text(values)


def _neighbours(v: float) -> list[float]:
    return [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]


EDGES = [
    0.0, -0.0, -1.0, -0.1, -123.456, -1e300,
    5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
    np.inf, -np.inf, np.nan,
    *(2.0**k for k in range(-30, 61)),
    *(v for k in range(-6, 18) for v in _neighbours(float(f"1e{k}"))),
    # the switch between fixed and scientific notation
    1e-4, np.nextafter(1e-4, 0.0), 1e16, 9999999999999998.0,
    # integers up to 2**53, and about 2**52, where the gap between doubles is 1
    *(float(2**k + d) for k in range(0, 54) for d in (-1, 1)),
    4503599627370495.5, 4503599627370497.0, 9007199254740991.0, 9007199254740992.0,
    # 1 to 17 significant digits
    *(float(f"{v:.{d}g}") for v in (0.12345678901234567, 98765.43210987654321, 3.0000000000000004e-3)
      for d in range(1, 18)),
    # 17 nines: the doubles just below a power of ten
    0.09999999999999999, 0.9999999999999999, 9.999999999999998, 999999999999999.9,
    # two nearest 17-digit candidates tie; repr rounds half to even
    1234567890123456.25, 1234567890123456.75,
]


def test_edge_cases():
    assert_same_text(np.array(EDGES))
    for v in EDGES:
        assert_same_text(np.array([v]))


def test_no_power_of_ten_in_fixed_notation_carries():
    # A certified c reaches 10**17 only when x's shortest string is a power of
    # ten above x; each power from 1e-4 to 1e15 rounds up to its double, so
    # the carry check in _digits is a guard that these doubles never take.
    powers = np.array([float(f"1e{k}") for k in range(-4, 16)])
    for k, v in zip(range(-4, 16), powers):
        assert Decimal(v) >= Decimal(10) ** k
    # 1.0 is a power of two
    assert fallback_mask(powers).tolist() == [k == 0 for k in range(-4, 16)]


def test_blocks_join_without_a_seam():
    values = bit_patterns(3, 1e-6, 1e18, 3 * _BLOCK + 5)
    assert_same_text(values)
    assert repr_lines(values[_BLOCK - 1:_BLOCK + 1]) == per_value_repr(values[_BLOCK - 1:_BLOCK + 1])


def test_strided_input():
    values = bit_patterns(4, 1e-3, 1e6, 1001)
    assert repr_lines(values[::3]) == per_value_repr(values[::3])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40),
                  elements=st.one_of(st.floats(), st.floats(1e-4, 2.0**52))))
def test_any_doubles(values):
    assert_same_text(values)


def test_study_sample_is_almost_all_certified():
    spec = TruncatedSampleSpec(Burr(tau=1, lam=2), Exponential(rate=1.0),
                               TruncationScheme(A=1.0, delta=0.45), 100_000, 2024)
    values = sample_truncated(spec).values
    fell = fallback_mask(values)
    assert fell.sum() < 0.001 * values.size
    assert (values[fell] < 1e-4).all()
    assert_same_text(values)
