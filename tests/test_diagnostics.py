import json
import math
import re

import numpy as np
import pytest

from trunctail import (
    AdaptiveParams,
    Burr,
    Exponential,
    Pareto,
    SampleData,
    TruncatedSampleSpec,
    TruncationScheme,
    beta_feasible_range,
    c_statistic_trend,
    check_assumptions,
    delta_feasible_range,
    design_rates,
    report_for_parameters,
    sample_c_statistic,
    sample_truncated,
    tilde_k,
    v_count,
)
from trunctail.diagnostics import BOUNDARY, FAILS, HOLDS


class TestCheckAssumptions:
    def test_both_hold(self):
        rep = check_assumptions(Pareto(alpha=1), TruncationScheme(A=1, delta=0.8), beta=0.5)
        assert rep.b_holds == HOLDS
        assert rep.c_holds == HOLDS  # 0.8 * 1.5 = 1.2 > 1

    def test_b_fails(self):
        rep = check_assumptions(Pareto(alpha=2), TruncationScheme(A=1, delta=0.6), beta=0.5)
        assert rep.b_holds == FAILS

    def test_c_boundary(self):
        # alpha*delta*(2 - beta) = 1 exactly; the squared log diverges there
        rep = check_assumptions(Pareto(alpha=1), TruncationScheme(A=1, delta=2 / 3), beta=0.5)
        assert rep.c_holds == BOUNDARY
        assert any("diverges" in note for note in rep.notes)

    def test_b_boundary(self):
        rep = check_assumptions(Pareto(alpha=2), TruncationScheme(A=3, delta=0.5), beta=0.5)
        assert rep.b_holds == BOUNDARY

    def test_scale_free(self):
        for a in (0.01, 1.0, 1e6):
            rep = check_assumptions(Burr(tau=1, lam=2), TruncationScheme(A=a, delta=0.45), beta=0.8)
            assert (rep.b_holds, rep.c_holds) == (HOLDS, HOLDS)

    def test_burr_fills_second_order_fields(self):
        rep = check_assumptions(Burr(tau=1, lam=2), TruncationScheme(A=1, delta=0.45), beta=0.8)
        assert rep.beta_window == (pytest.approx(2 / 3), 1.0)
        assert rep.rho_condition is True

    def test_pareto_has_no_rho_condition(self):
        rep = check_assumptions(Pareto(alpha=2), TruncationScheme(A=1, delta=0.45), beta=0.8)
        assert rep.rho_condition is None
        assert rep.beta_window == (0.5, 1.0)
        assert any("first-order" in note for note in rep.notes)

    def test_rho_condition_can_fail(self):
        # rho = -0.5 needs beta > 2/3
        rep = check_assumptions(Burr(tau=1, lam=2), TruncationScheme(A=1, delta=0.45), beta=0.6)
        assert rep.rho_condition is False
        assert any("outside the feasible window" in n for n in rep.notes)


class TestReportForParameters:
    def test_matches_burr_model_route(self):
        # Pareto has rho None: the first-order exact tail takes the same route
        for model in (Burr(tau=1, lam=2), Pareto(alpha=1)):
            via_model = check_assumptions(model, TruncationScheme(A=1, delta=0.45), beta=0.8)
            via_params = report_for_parameters(alpha=model.alpha, rho=model.rho, beta=0.8, delta=0.45)
            assert via_params == via_model

    def test_rejects_nonnegative_rho(self):
        with pytest.raises(ValueError, match="rho"):
            report_for_parameters(alpha=1.0, rho=0.1, beta=0.5, delta=0.5)

    def test_overflowing_exponent_product_rejected(self):
        # alpha*delta is finite but times (2 - beta) it is not
        for alpha, delta in ((1e300, 1e10), (1e300, 1.5e8)):
            with pytest.raises(ValueError, match=r"overflows: alpha = .*, delta = "):
                report_for_parameters(alpha=alpha, rho=-1.0, beta=0.5, delta=delta)

    def test_serialization_keys(self):
        doc = report_for_parameters(alpha=1.0, rho=-1.0, beta=0.8, delta=0.9).to_dict()
        assert list(doc) == [
            "b_holds", "c_holds", "beta_window_lo", "beta_window_hi",
            "rho_ok", "notes",
        ]
        assert doc["beta_window_lo"] == pytest.approx(0.5)
        assert doc["beta_window_hi"] == 1.0


class TestBetaWindow:
    def test_hand_values(self):
        assert beta_feasible_range(1, -1) == (pytest.approx(0.5), 1.0)
        assert beta_feasible_range(2, -2) == (pytest.approx(0.5), 1.0)
        assert beta_feasible_range(0.5, -0.5) == (pytest.approx(2 / 3), 1.0)
        assert beta_feasible_range(2.0, None) == (0.5, 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="rho"):
            beta_feasible_range(1.0, 0.0)
        with pytest.raises(ValueError, match="alpha"):
            beta_feasible_range(0.0, -1.0)

    def test_lower_bound_monotone_in_rho_strength(self):
        # stronger second-order decay (more negative rho) can only widen the window
        rhos = [-0.25, -0.5, -1.0, -2.0, -8.0]
        lows = [beta_feasible_range(2.0, r)[0] for r in rhos]
        assert lows == sorted(lows, reverse=True)


class TestDeltaWindow:
    def test_hand_values(self):
        got = delta_feasible_range(1, 0.5)
        assert got[0] == pytest.approx(2 / 3)
        assert got[1] == pytest.approx(1.0)
        got = delta_feasible_range(2, 0.5)
        assert got == (pytest.approx(1 / 3), pytest.approx(0.5))

    def test_never_empty_below_one(self):
        for beta in (0.1, 0.5, 0.9, 0.999):
            lo, hi = delta_feasible_range(1.0, beta)
            assert lo < hi

    def test_widens_as_beta_decreases(self):
        widths = [hi - lo for lo, hi in (delta_feasible_range(2.0, b) for b in (0.9, 0.5, 0.1))]
        assert widths == sorted(widths)


class TestCrossConsistency:
    def test_feasible_parameters_always_pass(self):
        for alpha in (0.5, 1.0, 2.0, 4.0):
            for rho in (-0.5, -1.0, -2.0):
                window = beta_feasible_range(alpha, rho)
                assert window is not None
                beta = 0.5 * (window[0] + window[1])
                dlo, dhi = delta_feasible_range(alpha, beta)
                delta = 0.5 * (dlo + dhi)
                rep = report_for_parameters(alpha, rho, beta, delta)
                assert (rep.b_holds, rep.c_holds) == (HOLDS, HOLDS)
                assert rep.rho_condition is True


class TestSampleCStatistic:
    def test_hand_example(self):
        # n = 100, V = 25, X_(1) = e**2: 100 * 0.25**1.5 * 4 = 50
        x1 = math.exp(2.0)
        values = [x1] * 25 + [1.0] * 75
        s = SampleData(values)
        params = AdaptiveParams(beta=0.5, gamma=0.5)
        assert v_count(s, 0.5) == 25
        assert sample_c_statistic(s, params) == pytest.approx(50.0, abs=1e-10)

    def test_zero_when_max_is_one(self):
        s = SampleData([1.0] * 40)
        assert sample_c_statistic(s, AdaptiveParams(beta=0.5, gamma=0.5)) == 0.0

    def test_degenerate(self):
        with pytest.raises(Exception, match="maximum is 0"):
            sample_c_statistic(SampleData([0.0, 0.0]), AdaptiveParams())

    def test_scaling_moves_only_the_log_factor(self):
        values = np.array([40.0, 22.0, 9.0, 4.0, 2.0, 1.0, 0.5, 0.25])
        params = AdaptiveParams(beta=0.6, gamma=0.5)
        s = SampleData(values)
        c = 8.0
        scaled = SampleData(c * values)
        assert v_count(scaled, 0.5) == v_count(s, 0.5)
        base = sample_c_statistic(s, params)
        got = sample_c_statistic(scaled, params)
        expected = base / math.log(40.0) ** 2 * math.log(c * 40.0) ** 2
        assert got == pytest.approx(expected, rel=1e-12)


class TestCStatisticTrend:
    @staticmethod
    def _sample(n, seed):
        spec = TruncatedSampleSpec(
            tail=Burr(tau=1, lam=2),
            light=Exponential(rate=1.0),
            truncation=TruncationScheme(A=1.0, delta=0.45),
            n=n,
            seed=seed,
        )
        return sample_truncated(spec)

    def test_prefix_sizes_and_values(self):
        sample = self._sample(8000, seed=5)
        params = AdaptiveParams(beta=0.8, gamma=0.5)
        trend = c_statistic_trend(sample, params)
        assert trend.sizes == (2000, 4000, 8000)
        assert trend.values[-1] == pytest.approx(sample_c_statistic(sample, params), rel=1e-12)
        assert trend.label in ("decreasing", "not decreasing")

    def test_label_matches_values(self):
        sample = self._sample(8000, seed=6)
        trend = c_statistic_trend(sample, AdaptiveParams(beta=0.8, gamma=0.5))
        strictly_down = all(b < a for a, b in zip(trend.values, trend.values[1:]))
        assert (trend.label == "decreasing") == strictly_down

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError, match="n >= 4"):
            c_statistic_trend(SampleData([3, 2, 1]), AdaptiveParams())


@pytest.mark.parametrize("call, message", [
    (lambda: delta_feasible_range(0.0, 0.5), "alpha must be positive, got 0.0"),
    (lambda: delta_feasible_range(2.0, 1.0), "beta must be in (0, 1), got 1.0"),
    (lambda: report_for_parameters(2.0, -0.5, 1.0, 0.45), "beta must be in (0, 1), got 1.0"),
], ids=["delta-window-alpha-0", "delta-window-beta-1", "report-beta-1"])
def test_error_branches_name_the_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestExponentRules:
    # the alpha and delta checks of the window functions and the report
    CALLS = {
        "beta-window-alpha": ("alpha", lambda v: beta_feasible_range(v, -1.0)),
        "delta-window-alpha": ("alpha", lambda v: delta_feasible_range(v, 0.5)),
        "report-alpha": ("alpha", lambda v: report_for_parameters(v, -0.5, 0.8, 0.45)),
        "report-delta": ("delta", lambda v: report_for_parameters(2.0, -0.5, 0.8, v)),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("value", [np.float32(2), np.int64(1)])
    def test_numpy_reals_accepted(self, call, value):
        self.CALLS[call][1](value)

    @pytest.mark.parametrize("call", list(CALLS))
    @pytest.mark.parametrize("value, text", [
        (True, "must be positive, got True"),
        (math.inf, "must be positive and finite, got inf"),
    ], ids=["bool", "inf"])
    def test_refusal_names_the_exponent(self, call, value, text):
        name, fn = self.CALLS[call]
        with pytest.raises(ValueError, match=re.escape(f"{name} {text}")):
            fn(value)

    def test_numpy_reals_are_computed_in_double(self):
        # float32 arithmetic would overflow alpha*delta = 1e40 with a warning
        alpha = np.float32(1e30)
        assert report_for_parameters(alpha, None, 0.5, 1e10) == report_for_parameters(float(alpha), None, 0.5, 1e10)

    def test_infinite_alpha_windows_refused(self):
        # these returned None and (0.0, 0.0) before alpha had one rule
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            beta_feasible_range(math.inf, -1.0)
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            delta_feasible_range(math.inf, 0.5)

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324, 1e-310])
    def test_delta_window_of_a_subnormal_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"1/alpha overflows: alpha = {alpha!r}")):
            delta_feasible_range(alpha, 0.5)

    def test_smallest_alpha_with_a_finite_window(self):
        lo, hi = delta_feasible_range(1e-308, 0.5)
        assert math.isfinite(lo) and hi == 1e308


class TestRhoNote:
    @pytest.mark.parametrize("beta", [5e-324, 1e-320, 1e-310])
    @pytest.mark.parametrize("rho", [-0.5, -1e-3, -1e300])
    def test_subnormal_beta_prints_no_inf(self, beta, rho):
        # -(1-beta)/beta overflows, and every finite rho lies above it
        rep = report_for_parameters(2.0, rho, beta, 0.45)
        assert rep.rho_condition is False
        text = json.dumps(rep.to_dict())
        assert not re.search(r"(?i)\b(inf|infinity|nan)\b", text), text
        assert f"rho = {rho:g} is not below -(1-beta)/beta < -1.79769e+308" in rep.notes

    def test_infinite_rho_is_below_every_bound(self):
        for beta in (5e-324, 0.5):
            assert report_for_parameters(2.0, -math.inf, beta, 0.45).rho_condition is True

    def test_finite_bound_note_unchanged(self):
        rep = report_for_parameters(2.0, -0.1, 0.8, 0.45)
        assert "rho = -0.1 is not below -(1-beta)/beta = -0.25" in rep.notes


class TestDesignRates:
    # the acceptance suite's two designs: STUDY (Burr(1, 2), beta = 0.8,
    # delta = 0.45) and LIMIT (Pareto(1), beta = 0.2, delta = 0.9)
    STUDY = (Burr(tau=1, lam=2), TruncationScheme(A=1.0, delta=0.45), AdaptiveParams(beta=0.8, gamma=0.5))
    LIMIT = (Pareto(alpha=1), TruncationScheme(A=1.0, delta=0.9), AdaptiveParams(beta=0.2, gamma=0.5))

    @pytest.mark.parametrize("design, rates, oracle", [
        ("STUDY", (7.917, 10.54, 12.74), (39, 77, 145)),
        ("LIMIT", (0.2275, 0.08528, 0.02946), (2267, 14757, 95635)),
    ])
    def test_rate_and_oracle_count_at_the_acceptance_designs(self, design, rates, oracle):
        # R = 7.9, 10.5, 12.7 (STUDY) and 0.23, 0.085, 0.030 (LIMIT) at
        # n = 1e4, 1e5, 1e6, as the acceptance suite's comments quote
        tail, trunc, params = getattr(self, design)
        for n, rate, k in zip((10**4, 10**5, 10**6), rates, oracle):
            got = design_rates(tail, trunc, params, n)
            assert got.rate == pytest.approx(rate, rel=5e-4), n
            assert got.oracle_k == k, n
            assert got.threshold == trunc.threshold(n)
            assert got.oracle_k == tilde_k(n, math.ceil(got.expected_u), params.beta)

    def test_about_three_capped_values_at_n_1e5_in_both_designs(self):
        study = design_rates(*self.STUDY, 10**5).expected_capped
        limit = design_rates(*self.LIMIT, 10**5).expected_capped
        assert study == pytest.approx(3.127, rel=5e-4)
        assert limit == pytest.approx(3.162, rel=5e-4)
        assert abs(study - 3.2) < 0.1 and abs(limit - 3.2) < 0.1

    def test_oracle_count_is_at_least_one_values_count(self):
        # P(H > gamma*M_n) underflows to 0, and the cut still holds the count
        # tilde_k(n, 1, beta) of a single value above gamma*M_n
        tail, _, params = self.STUDY
        got = design_rates(tail, TruncationScheme(A=1e200, delta=0.5), params, 100)
        assert got.expected_u == 0.0
        assert got.oracle_k == tilde_k(100, 1, params.beta) == 2

    @pytest.mark.parametrize("n", [0, -5, 1.5, True, 2**63])
    def test_n_follows_the_one_rule(self, n):
        with pytest.raises(ValueError, match=rf"^n must be an integer with n >= 1 .*, got {re.escape(repr(n))}$"):
            design_rates(*self.STUDY, n)
