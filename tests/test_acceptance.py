"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 2-6 pin their
seeds; the pinned runs are deterministic, so every asserted number is stable
across machines, reruns and thread counts.

Two designs are run. The paper's limit needs the rate quantity
R(n) = n * P(H > M_n)**(2 - beta) * (log M_n)**2 to vanish; ``design_rates``
gives it in closed form. ``STUDY`` is the replication-study design of the
README: criteria 4, 5, 8 and 9 run on it. Its R is of order 10 and rising at
desk-scale n, so a finite-n normal limit is not promised there. ``LIMIT`` is a
design where R is already small and falling at desk scale: criterion 3 checks
the normal limit on it, and criterion 6 checks that the diagnostic statistic
falls on ``LIMIT`` and rises on ``STUDY``, as R does. ``ROUGH``, ``SHALLOW``
and ``SMOOTH`` are not run: a test checks that the assumption checker flags
the one condition that each of the first two breaks, and none in the others.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trunctail import (
    AdaptiveParams,
    Burr,
    DegenerateSampleError,
    DesignRates,
    ExperimentSpec,
    Exponential,
    Pareto,
    SampleData,
    TruncatedSampleSpec,
    TruncationScheme,
    Zero,
    adaptive_k,
    beta_feasible_range,
    check_assumptions,
    delta_feasible_range,
    design_rates,
    estimate,
    hill_curve,
    hill_statistic,
    ks_distance,
    normal_cdf,
    normal_quantile,
    run_experiment,
    run_replication,
    sample_c_statistic,
    sample_tail,
    sample_truncated,
    tilde_k,
    u_count,
    v_count,
)
from trunctail.diagnostics import BOUNDARY, FAILS, HOLDS
from trunctail.montecarlo import aggregate_json, qq_csv, replications_csv

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the study design for criteria 4, 5, 8, 9 and the rising half of 6: alpha = 2,
# rho = -0.5; beta = 0.8 inside (2/3, 1); delta = 0.45 inside (0.4167, 0.5);
# all-moment-finite light excess. Its rate exponent
# c = alpha*delta*(2 - beta) - 1 = 0.08 is so small that the squared log wins:
# R = 7.9, 10.5, 12.7 at n = 1e4, 1e5, 1e6, rising until n ~ 7e10
STUDY = dict(
    tail=Burr(tau=1, lam=2),
    light=Exponential(rate=1.0),
    truncation=TruncationScheme(A=1.0, delta=0.45),
    params=AdaptiveParams(beta=0.8, gamma=0.5),
)
# the limit design for criterion 3 and the falling half of 6, chosen from the
# closed forms: exact Pareto, so no second-order bias can cancel the truncation
# bias; 1 - alpha*delta = 0.1 as in STUDY, so about 3.2 values are capped at
# n = 1e5 in both; c = 0.62, so R = 0.23, 0.085, 0.030 at n = 1e4, 1e5, 1e6.
# alpha = 2 cannot get there: its beta window starts at 0.5, which keeps c < 0.5
LIMIT = dict(
    tail=Pareto(alpha=1),
    light=Exponential(rate=1.0),
    truncation=TruncationScheme(A=1.0, delta=0.9),
    params=AdaptiveParams(beta=0.2, gamma=0.5),
)
# three designs that each break at most one condition of the limit theorem,
# all with light exp:rate=1, A = 1 and gamma = 0.5. ROUGH: Burr with
# alpha = 1 and rho = -0.5, whose beta = 0.5 is below 1/(1 - rho) = 2/3, so
# the rho condition alone fails. SHALLOW: exact Pareto(1) with
# alpha*delta*(2 - beta) = 0.675 <= 1, so the threshold grows too slowly for
# the vanishing condition alone. SMOOTH: ROUGH at beta = 0.8, which holds all
# three
ROUGH = dict(
    tail=Burr(tau=0.5, lam=2),
    light=Exponential(rate=1.0),
    truncation=TruncationScheme(A=1.0, delta=0.9),
    params=AdaptiveParams(beta=0.5, gamma=0.5),
)
SHALLOW = dict(
    tail=Pareto(alpha=1),
    light=Exponential(rate=1.0),
    truncation=TruncationScheme(A=1.0, delta=0.45),
    params=AdaptiveParams(beta=0.5, gamma=0.5),
)
SMOOTH = dict(ROUGH, params=AdaptiveParams(beta=0.8, gamma=0.5))
CLT_BASE_SEED = 11
CLT_N = 100000
CLT_REPLICATIONS = 500

CONSISTENCY_SEED = 29
HILL_SANITY_BASE = 300


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def rates(design: dict, n: int) -> DesignRates:
    return design_rates(design["tail"], design["truncation"], design["params"], n)


def clt_spec(design: dict = STUDY) -> ExperimentSpec:
    return ExperimentSpec(
        n_list=(CLT_N,),
        replications=CLT_REPLICATIONS,
        base_seed=CLT_BASE_SEED,
        level=0.95,
        **design,
    )


@pytest.fixture(scope="module")
def clt_run():
    return run_experiment(clt_spec())


@pytest.fixture(scope="module")
def limit_run():
    return run_experiment(clt_spec(LIMIT))


class TestCriterion1ClosedForms:
    """Every closed-form example, asserted at 1e-12 where arithmetic is exact."""

    def test_distribution_closed_forms(self):
        p21 = Pareto(alpha=2, xmin=1)
        b12 = Burr(tau=1, lam=2)
        assert p21.survival(10) == pytest.approx(0.01, abs=1e-12)
        assert p21.survival(0.5) == 1.0
        assert b12.survival(1) == pytest.approx(0.25, abs=1e-12)
        assert p21.quantile_b(100) == pytest.approx(10, abs=1e-12)
        assert b12.quantile_b(4) == pytest.approx(1, abs=1e-12)
        assert b12.survival(b12.quantile_b(4)) == pytest.approx(0.25, abs=1e-12)
        assert Pareto(alpha=1, xmin=2).quantile_b(1) == pytest.approx(2, abs=1e-12)
        assert p21.slowly_varying(7) == pytest.approx(1, abs=1e-12)
        assert b12.slowly_varying(1) == pytest.approx(0.25, abs=1e-12)
        assert b12.second_order_auxiliary(10) == pytest.approx(0.05, abs=1e-12)
        assert Burr(tau=2, lam=1).second_order_auxiliary(10) == pytest.approx(0.005, abs=1e-12)
        with pytest.raises(ValueError):
            p21.second_order_auxiliary(10)
        with pytest.raises(ValueError):
            p21.quantile_b(0.5)

    def test_sampling_closed_forms(self):
        draws = sample_tail(Pareto(alpha=1, xmin=1), 300, seed=4)
        assert np.all(draws >= 1.0)
        assert np.array_equal(draws, sample_tail(Pareto(alpha=1, xmin=1), 300, seed=4))

        spec = TruncatedSampleSpec(Pareto(alpha=1), Zero(), TruncationScheme(1.0, 0.8), 1000, 5)
        m = spec.truncation.threshold(1000)
        sample = sample_truncated(spec)
        heavy = sample_tail(spec.tail, 1000, 5)
        assert sample.ordered[0] <= m
        assert np.count_nonzero(sample.values == m) == np.count_nonzero(heavy > m)

        wide = TruncatedSampleSpec(Pareto(alpha=1), Zero(), TruncationScheme(1.0, 5.0), 1000, 5)
        assert np.array_equal(sample_truncated(wide).values, heavy)

    def test_estimator_closed_forms(self):
        assert SampleData([1, 5, 3]).ordered.tolist() == [5, 3, 1]
        assert SampleData([2, 2, 2]).ordered.tolist() == [2, 2, 2]
        assert SampleData([0]).ordered.tolist() == [0]

        s = SampleData([8, 4, 2, 1])
        assert hill_statistic(s, 2) == pytest.approx(math.log(2) / 2, abs=1e-12)
        assert hill_statistic(SampleData([5, 5, 5]), 3) == 0.0

        q = SampleData([10, 6, 5, 1])
        assert v_count(q, 0.5) == 2
        assert v_count(q, 0.49) == 3
        assert v_count(q, 0.99) == 1
        assert adaptive_k(q, AdaptiveParams(beta=0.5, gamma=0.5)) == 2
        assert adaptive_k(SampleData([60.0] * 25 + [1.0] * 75), AdaptiveParams(beta=0.5, gamma=0.5)) == 50
        assert adaptive_k(SampleData([5, 5, 5]), AdaptiveParams(beta=0.37, gamma=0.5)) == 3

        assert u_count(q, 0.5, 10.0) == 2
        assert u_count(q, 0.9, 20.0) == 0
        assert tilde_k(16, 4, 0.5) == 8
        assert tilde_k(100, 0, 0.5) == 0
        assert tilde_k(100, 100, 0.73) == 100

        with pytest.raises(DegenerateSampleError):
            estimate(SampleData([5.0] * 50), AdaptiveParams(beta=0.5, gamma=0.5))

        ks, hs = hill_curve(s, 1, 2)
        assert (ks[0], hs[0]) == (1, 0.0)
        assert hs[1] == pytest.approx(math.log(2) / 2, abs=1e-12)
        assert hs[1] == pytest.approx(hill_statistic(s, 2), abs=1e-12)

    def test_diagnostics_closed_forms(self):
        rep = check_assumptions(Pareto(alpha=1), TruncationScheme(1, 0.8), 0.5)
        assert (rep.b_holds, rep.c_holds) == (HOLDS, HOLDS)
        assert check_assumptions(Pareto(alpha=2), TruncationScheme(1, 0.6), 0.5).b_holds == FAILS
        assert check_assumptions(Pareto(alpha=1), TruncationScheme(1, 2 / 3), 0.5).c_holds == BOUNDARY

        assert beta_feasible_range(1, -1) == (pytest.approx(0.5), 1.0)
        assert beta_feasible_range(2, -2) == (pytest.approx(0.5), 1.0)
        assert beta_feasible_range(0.5, -0.5) == (pytest.approx(2 / 3), 1.0)
        assert delta_feasible_range(1, 0.5) == (pytest.approx(2 / 3), pytest.approx(1.0))
        assert delta_feasible_range(2, 0.5) == (pytest.approx(1 / 3), pytest.approx(0.5))
        lo, hi = delta_feasible_range(1, 0.999)
        assert lo < hi

        stat = sample_c_statistic(
            SampleData([math.exp(2)] * 25 + [1.0] * 75), AdaptiveParams(beta=0.5, gamma=0.5)
        )
        assert stat == pytest.approx(50.0, abs=1e-10)
        assert sample_c_statistic(SampleData([1.0] * 10), AdaptiveParams(beta=0.5, gamma=0.5)) == 0.0

    def test_normal_kernel_closed_forms(self):
        assert normal_cdf(0.0) == 0.5
        for x in (0.5, 1.96, 3.0):
            assert normal_cdf(-x) == pytest.approx(1 - normal_cdf(x), abs=1e-12)
        assert normal_quantile(0.5) == 0.0
        for x in (-3.0, -1.0, 0.0, 1.0, 3.0):
            assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)
        assert ks_distance([0.0]) == pytest.approx(0.5, abs=1e-12)
        m = 1000
        scores = [normal_quantile((i - 0.5) / m) for i in range(1, m + 1)]
        assert ks_distance(scores) == pytest.approx(0.0005, abs=1e-8)

    def test_cli_closed_forms(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "trunctail", *args],
                capture_output=True, text=True, env=env,
            )

        data = tmp_path / "d.csv"
        data.write_text("x\n8\n4\n2\n1\n")
        proc = cli("estimate", "--input", str(data), "--k", "2")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["h"] == pytest.approx(0.346574, abs=1e-6)
        assert cli("estimate", "--input", str(tmp_path / "missing.csv")).returncode == 2
        bad = cli("estimate", "--input", str(data), "--beta", "1.5")
        assert bad.returncode == 2 and "beta" in bad.stderr

        _verdict("criterion 1 (closed-form unit suite)", True)


class TestCriterion2ClassicalHill:
    def test_untruncated_pareto_fixed_k(self):
        n, k, reps = 100000, 1000, 200
        details = []
        ok = True
        for block, alpha in enumerate((1.0, 2.0)):
            hs = np.array([
                hill_statistic(
                    SampleData(sample_tail(Pareto(alpha=alpha), n, HILL_SANITY_BASE + 1000 * block + r)), k
                )
                for r in range(reps)
            ])
            zs = math.sqrt(k) * (hs - 1.0 / alpha) * alpha
            mean_ok = abs(hs.mean() - 1.0 / alpha) < 0.01 * (1.0 / alpha)
            var = float(zs.var(ddof=1))
            var_ok = 0.9 <= var <= 1.1
            ok = ok and mean_ok and var_ok
            details.append(f"alpha={alpha}: mean_h={hs.mean():.6f}, var_z={var:.4f}")
        _verdict("criterion 2 (classical Hill sanity)", ok, "; ".join(details))


class TestCriterion3CLTDeskScale:
    def test_standardized_statistic_is_close_to_normal(self, limit_run):
        # precondition from the closed forms: the limit theorem applies and its
        # rate quantity is already small and falling at this n
        assumptions = check_assumptions(LIMIT["tail"], LIMIT["truncation"], LIMIT["params"].beta)
        assert (assumptions.b_holds, assumptions.c_holds) == (HOLDS, HOLDS)
        assert rates(LIMIT, CLT_N).rate < 1.0
        assert rates(LIMIT, 10**6).rate < rates(LIMIT, 10**4).rate

        rep = limit_run.reports[CLT_N]
        checks = {
            "|mean_z| < 0.15": abs(rep.mean_z) < 0.15,
            "var_z in [0.75, 1.25]": 0.75 <= rep.var_z <= 1.25,
            "ks < 0.08": rep.ks_distance < 0.08,
            "failures == 0": rep.failures == 0,
        }
        detail = (
            f"mean_z={rep.mean_z:+.4f}, var_z={rep.var_z:.4f}, "
            f"ks={rep.ks_distance:.4f}, failures={rep.failures}"
        )
        _verdict("criterion 3 (normal limit at desk scale)", all(checks.values()),
                 detail + "  [" + ", ".join(k for k, v in checks.items() if not v) + "]")


class TestCriterion4Coverage:
    def test_ci_coverage(self, clt_run):
        rep = clt_run.reports[CLT_N]
        ok = 0.90 <= rep.coverage <= 0.98
        _verdict("criterion 4 (CI coverage at level 0.95)", ok, f"coverage={rep.coverage:.4f}")


def consistency_ratios(seed: int) -> tuple[float, float, float]:
    n = 10**6
    spec = TruncatedSampleSpec(STUDY["tail"], STUDY["light"], STUDY["truncation"], n, seed)
    sample = sample_truncated(spec)
    params = STUDY["params"]
    closed = rates(STUDY, n)
    expected = closed.expected_u  # n * P(H > gamma*M_n)
    return (
        u_count(sample, params.gamma, closed.threshold) / expected,
        v_count(sample, params.gamma) / expected,
        adaptive_k(sample, params) / (n * (expected / n) ** params.beta),
    )


class TestCriterion5ConsistencyLaws:
    def test_threshold_count_ratios(self):
        ru, rv, rk = consistency_ratios(CONSISTENCY_SEED)
        ok = all(0.9 <= r <= 1.1 for r in (ru, rv, rk))
        _verdict(
            "criterion 5 (count consistency at n = 1e6)", ok,
            f"U/(nP)={ru:.4f}, V/(nP)={rv:.4f}, k/(nP^beta)={rk:.4f}",
        )


def c_statistic_average(n: int, seeds: range, design: dict = STUDY) -> float:
    vals = [
        sample_c_statistic(
            sample_truncated(
                TruncatedSampleSpec(design["tail"], design["light"], design["truncation"], n, s)
            ),
            design["params"],
        )
        for s in seeds
    ]
    return float(np.mean(vals))


class TestCriterion6DiagnosticTrend:
    def test_statistic_decreases_with_n(self):
        # the statistic must track the direction of R both ways: R falls
        # from n = 1e4 to 1e6 on LIMIT and rises on STUDY
        assert rates(LIMIT, 10**6).rate < rates(LIMIT, 10**4).rate
        assert rates(STUDY, 10**6).rate > rates(STUDY, 10**4).rate
        limit_small = c_statistic_average(10**4, range(20), LIMIT)
        limit_large = c_statistic_average(10**6, range(20), LIMIT)
        study_small = c_statistic_average(10**4, range(20), STUDY)
        study_large = c_statistic_average(10**6, range(20), STUDY)
        _verdict(
            "criterion 6 (vanishing-statistic trend)",
            limit_large < limit_small and study_large >= study_small,
            f"LIMIT mean at n=1e4: {limit_small:.3f}, at n=1e6: {limit_large:.3f}; "
            f"STUDY mean at n=1e4: {study_small:.3f}, at n=1e6: {study_large:.3f}",
        )


class TestCriterion7CheckerAlgebra:
    def test_exhaustive_grid_matches_hand_inequalities(self):
        eps = 1e-6
        cells = 0
        for alpha in (0.5, 1.0, 2.0, 4.0):
            for beta in [round(0.1 * i, 1) for i in range(1, 10)]:
                d_lo, d_hi = delta_feasible_range(alpha, beta)
                for delta in (d_lo - eps, d_lo + eps, d_hi - eps, d_hi + eps):
                    rep = check_assumptions(Pareto(alpha=alpha), TruncationScheme(1.0, delta), beta)
                    expect_b = HOLDS if alpha * delta < 1 else FAILS
                    expect_c = HOLDS if alpha * delta * (2 - beta) > 1 else FAILS
                    assert rep.b_holds == expect_b, (alpha, beta, delta)
                    assert rep.c_holds == expect_c, (alpha, beta, delta)
                    cells += 1
        _verdict("criterion 7 (assumption-checker algebra)", True, f"{cells} cells")


def failed_conditions(design: dict) -> set:
    """The conditions of the limit theorem that check_assumptions does not
    pass for the design: b_holds, c_holds and the rho condition."""
    rep = check_assumptions(design["tail"], design["truncation"], design["params"].beta)
    return ({name for name in ("b_holds", "c_holds") if getattr(rep, name) != HOLDS}
            | ({"rho_condition"} if rep.rho_condition is False else set()))


class TestEachBrokenConditionFlaggedAlone:
    def test_checker_flags_exactly_the_broken_condition(self):
        got = {name: failed_conditions(design) for name, design in
               [("ROUGH", ROUGH), ("SHALLOW", SHALLOW), ("SMOOTH", SMOOTH), ("STUDY", STUDY), ("LIMIT", LIMIT)]}
        want = {"ROUGH": {"rho_condition"}, "SHALLOW": {"c_holds"}, "SMOOTH": set(), "STUDY": set(), "LIMIT": set()}
        _verdict("each broken condition flagged alone", got == want, str(got))


class TestCriterion8SecondOrderOracle:
    def test_quotient_close_to_limit_at_1e4(self):
        model = STUDY["tail"]
        alpha, rho = model.alpha, model.rho
        t = 1e4
        worst = 0.0
        for x in (2.0, 5.0, 10.0):
            quotient = (model.survival(t * x) / model.survival(t) - x**-alpha) / model.second_order_auxiliary(t)
            limit = x**-alpha * (x ** (rho * alpha) - 1) / (rho / alpha)
            worst = max(worst, abs(quotient - limit))
        _verdict("criterion 8 (second-order convergence)", worst < 1e-3, f"worst |quotient - limit| = {worst:.2e}")


class TestCriterion9Determinism:
    def test_reruns_and_threads_are_byte_identical(self, clt_run):
        base = (
            replications_csv(clt_run.replications),
            aggregate_json(clt_run.reports),
            qq_csv(clt_run),
        )
        rerun = run_experiment(clt_spec())
        threaded = run_experiment(clt_spec(), max_workers=8)
        ok = True
        for other in (rerun, threaded):
            again = (
                replications_csv(other.replications),
                aggregate_json(other.reports),
                qq_csv(other),
            )
            ok = ok and base == again

        ratios_a = repr(consistency_ratios(CONSISTENCY_SEED))
        ratios_b = repr(consistency_ratios(CONSISTENCY_SEED))
        ok = ok and ratios_a == ratios_b

        trend_a = repr((c_statistic_average(10**4, range(20)), c_statistic_average(10**6, range(20))))
        trend_b = repr((c_statistic_average(10**4, range(20)), c_statistic_average(10**6, range(20))))
        ok = ok and trend_a == trend_b

        _verdict("criterion 9 (byte-identical reruns and thread counts)", ok)
