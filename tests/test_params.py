"""The parameter rules of the numpy-free _params module: they accept numpy
scalars as the rules did when they lived next to numpy, and refuse the same
look-alikes."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from trunctail._params import _MAX_N, _check_n, _check_seed, _is_int, _require_positive


def test_largest_n_is_numpys_largest_array_length():
    assert _MAX_N == np.iinfo(np.intp).max


@pytest.mark.parametrize("value", [np.int64(5), np.uint64(5), np.int8(5)])
def test_integer_rules_accept_numpy_integers(value):
    assert _is_int(value)
    _check_n(value)
    _check_seed(value)


# np.bool_ compares as 1, but it is no count or seed; test_distributions
# covers bool and float for n
@pytest.mark.parametrize("value", [np.bool_(True), Fraction(5), Decimal(5), "5"])
def test_integer_rules_refuse_look_alikes(value):
    assert not _is_int(value)
    with pytest.raises(ValueError, match=f"^n must be an integer.*, got {re.escape(repr(value))}$"):
        _check_n(value)
    with pytest.raises(ValueError, match=f"^seed must be an integer.*, got {re.escape(repr(value))}$"):
        _check_seed(value)


# TestPositiveRule in test_distributions covers numpy reals, bool and str
@pytest.mark.parametrize("value", [np.bool_(True), Fraction(2), Decimal(2)])
def test_positive_rule_refuses_look_alikes(value):
    with pytest.raises(ValueError, match=f"^alpha must be positive, got {re.escape(repr(value))}$"):
        _require_positive("alpha", value)
