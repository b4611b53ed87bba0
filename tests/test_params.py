"""The parameter rules of the numpy-free _params module: they accept numpy
scalars as the rules did when they lived next to numpy, and refuse the same
look-alikes."""

import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from trunctail import (
    AdaptiveParams,
    ExperimentSpec,
    Exponential,
    Pareto,
    SampleData,
    TruncatedSampleSpec,
    TruncationScheme,
    beta_feasible_range,
    estimate,
    hill_curve,
    tilde_k,
)
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


# more digits than str() converts by default (4,300), so a message that
# formatted it as it is would raise the interpreter's conversion limit
HUGE = -10**5000
DESIGN = dict(tail=Pareto(alpha=1), light=Exponential(rate=1.0), truncation=TruncationScheme(A=1.0, delta=0.45))
SAMPLE = SampleData(np.arange(1.0, 11.0))


@pytest.mark.parametrize("name, call", [
    pytest.param("n", lambda: _check_n(HUGE), id="check_n"),
    pytest.param("seed", lambda: _check_seed(HUGE), id="check_seed"),
    pytest.param("u", lambda: tilde_k(10, HUGE, 0.5), id="tilde_k-u"),
    pytest.param("n", lambda: tilde_k(HUGE, 1, 0.5), id="tilde_k-n"),
    pytest.param("n", lambda: ExperimentSpec(params=AdaptiveParams(), n_list=[HUGE], replications=2, base_seed=0,
                                             **DESIGN), id="ExperimentSpec-n_list"),
    pytest.param("n_list", lambda: ExperimentSpec(params=AdaptiveParams(), n_list=[HUGE, 1.5], replications=2,
                                                  base_seed=0, **DESIGN), id="ExperimentSpec-n_list-item"),
    pytest.param("replications", lambda: ExperimentSpec(params=AdaptiveParams(), n_list=[100], replications=HUGE,
                                                        base_seed=0, **DESIGN), id="ExperimentSpec-replications"),
    pytest.param("seed", lambda: TruncatedSampleSpec(*DESIGN.values(), n=100, seed=HUGE), id="TruncatedSampleSpec"),
    pytest.param("alpha", lambda: Pareto(alpha=HUGE), id="Pareto"),
    pytest.param("alpha", lambda: Pareto(alpha=-HUGE), id="Pareto-positive"),
    pytest.param("beta", lambda: AdaptiveParams(beta=HUGE), id="AdaptiveParams"),
    pytest.param("rho", lambda: beta_feasible_range(2.0, -HUGE), id="beta_feasible_range"),
    pytest.param("k", lambda: estimate(SAMPLE, k=HUGE), id="estimate"),
    pytest.param("k", lambda: SAMPLE.top(HUGE), id="top"),
    pytest.param("k_min", lambda: hill_curve(SAMPLE, HUGE, 5), id="hill_curve"),
])
def test_huge_integer_is_refused_by_name_and_digit_count(name, call):
    with pytest.raises(ValueError) as info:
        call()
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)
    assert "integer of 5001 digits" in str(info.value)
    assert "Exceeds the limit" not in str(info.value)
