import math
import re
import typing
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunctail import (
    Burr,
    Exponential,
    LightTailModel,
    Pareto,
    TruncatedSampleSpec,
    TruncationScheme,
    Uniform,
    Zero,
    parse_light_model,
    parse_tail_model,
    parse_truncation,
    sample_tail,
    sample_truncated,
)
from trunctail.distributions import (
    _BLOCK,
    _RAW_CHUNK,
    _stream,
    _tail_floor,
    _tail_survivals,
    _truncated,
)
from trunctail.estimator import _TailTooShort


class TestSurvival:
    def test_pareto_closed_form(self):
        p = Pareto(alpha=2, xmin=1)
        assert p.survival(10) == pytest.approx(0.01, abs=1e-12)
        assert p.survival(0.5) == 1.0

    def test_burr_closed_form(self):
        b = Burr(tau=1, lam=2)
        assert b.survival(1) == pytest.approx(0.25, abs=1e-12)

    def test_burr_indices(self):
        b = Burr(tau=1, lam=2)
        assert b.alpha == 2
        assert b.rho == -0.5
        assert Pareto(alpha=3).rho is None

    def test_limits(self):
        b = Burr(tau=2, lam=1.5)
        assert b.survival(0) == 1.0
        assert b.survival(1e12) < 1e-30
        assert b.survival(1e200) == 0.0  # graceful underflow, no overflow

    @given(
        st.floats(0.3, 5), st.floats(0.3, 5),
        st.floats(0, 1e6), st.floats(0, 1e6),
    )
    def test_burr_monotone_and_bounded(self, tau, lam, x1, x2):
        b = Burr(tau=tau, lam=lam)
        lo, hi = sorted((x1, x2))
        assert 0.0 <= b.survival(hi) <= b.survival(lo) <= 1.0

    @given(st.floats(0.3, 5), st.floats(0.1, 10), st.floats(0, 1e6), st.floats(0, 1e6))
    def test_pareto_monotone_and_bounded(self, alpha, xmin, x1, x2):
        p = Pareto(alpha=alpha, xmin=xmin)
        lo, hi = sorted((x1, x2))
        assert 0.0 <= p.survival(hi) <= p.survival(lo) <= 1.0


class TestQuantileB:
    def test_pareto(self):
        assert Pareto(alpha=2, xmin=1).quantile_b(100) == pytest.approx(10, abs=1e-12)
        assert Pareto(alpha=1, xmin=2).quantile_b(1) == pytest.approx(2, abs=1e-12)

    def test_burr(self):
        b = Burr(tau=1, lam=2)
        x = b.quantile_b(4)
        assert x == pytest.approx(1, abs=1e-12)
        assert b.survival(x) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError, match="y >= 1"):
            Pareto(alpha=2).quantile_b(0.99)
        with pytest.raises(ValueError, match="y >= 1"):
            Burr(tau=1, lam=2).quantile_b(0.5)

    @pytest.mark.parametrize("model", [Pareto(alpha=2, xmin=1), Pareto(alpha=0.7, xmin=3), Burr(tau=1, lam=2), Burr(tau=2.5, lam=0.8)])
    def test_inversion_on_log_grid(self, model):
        # generalized-inverse property; the strict lower test degenerates at
        # y = 1 where survival is identically 1 on and below the endpoint
        for y in np.logspace(0, 8, 33):
            x = model.quantile_b(y)
            assert model.survival(x) * y <= 1 + 1e-9
            if y > 1:
                assert model.survival(x * (1 - 1e-9)) * y > 1

    @given(st.floats(1, 1e8), st.floats(1, 1e8))
    def test_monotone_in_y(self, y1, y2):
        b = Burr(tau=1.5, lam=2)
        lo, hi = sorted((y1, y2))
        assert b.quantile_b(lo) <= b.quantile_b(hi)


class TestSlowlyVarying:
    def test_pareto_constant(self):
        assert Pareto(alpha=2, xmin=1).slowly_varying(7) == pytest.approx(1, abs=1e-12)

    def test_burr_at_one(self):
        assert Burr(tau=1, lam=2).slowly_varying(1) == pytest.approx(0.25, abs=1e-12)

    def test_burr_tends_to_one(self):
        # limit of (x/(1+x))**2 is 1; evaluate far out
        assert abs(Burr(tau=1, lam=2).slowly_varying(1e6) - 1) < 1e-5

    def test_below_support_rejected(self):
        with pytest.raises(ValueError, match="below the support"):
            Pareto(alpha=2, xmin=1).slowly_varying(0.5)
        with pytest.raises(ValueError, match="below the support"):
            Burr(tau=1, lam=2).slowly_varying(-0.1)


class TestSecondOrderAuxiliary:
    def test_closed_form(self):
        assert Burr(tau=1, lam=2).second_order_auxiliary(10) == pytest.approx(0.05, abs=1e-12)
        assert Burr(tau=2, lam=1).second_order_auxiliary(10) == pytest.approx(0.005, abs=1e-12)

    def test_pareto_unsupported(self):
        with pytest.raises(ValueError, match="first-order exact"):
            Pareto(alpha=2).second_order_auxiliary(10)

    @staticmethod
    def _quotient_error(model, t, x):
        alpha, rho = model.alpha, model.rho
        quotient = (model.survival(t * x) / model.survival(t) - x**-alpha) / model.second_order_auxiliary(t)
        limit = x**-alpha * (x ** (rho * alpha) - 1) / (rho / alpha)
        return abs(quotient - limit)

    def test_convergence_rate_at_1e4(self):
        b = Burr(tau=1, lam=2)
        assert self._quotient_error(b, 1e4, 2.0) < 1e-3

    def test_convergence_is_monotone_in_t(self):
        b = Burr(tau=1, lam=2)
        for x in (2.0, 5.0, 10.0):
            errs = [self._quotient_error(b, 10.0**k, x) for k in range(2, 7)]
            assert all(b2 < a2 for a2, b2 in zip(errs, errs[1:])), errs

    def test_burr_ratio_approaches_pareto(self):
        # survival(t*x)/survival(t) -> x**(-tau*lam) far out in the tail
        b = Burr(tau=1, lam=2)
        t = 1e6
        for x in (2.0, 5.0, 10.0):
            assert abs(b.survival(t * x) / b.survival(t) - x**-2.0) < 1e-4


class TestSampleTail:
    def test_support_and_determinism(self):
        p = Pareto(alpha=1, xmin=1)
        draws = sample_tail(p, 500, seed=11)
        assert np.all(draws >= 1.0)
        again = sample_tail(p, 500, seed=11)
        assert draws.tobytes() == again.tobytes()
        other = sample_tail(p, 500, seed=12)
        assert not np.array_equal(draws, other)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="n >= 1"):
            sample_tail(Pareto(alpha=1), 0, seed=1)

    # 10**20 is beyond numpy's largest array length; a bool or float n would
    # reach numpy and fail there without naming n
    @pytest.mark.parametrize("n", [10**20, True, 2.0])
    def test_rejects_n_numpy_cannot_take(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer.*, got {re.escape(repr(n))}$"):
            sample_tail(Pareto(alpha=2), n, seed=0)

    def test_overflowing_draws_are_inf_without_warning(self):
        # tier-1 turns a RuntimeWarning into an error
        assert np.isinf(sample_tail(Pareto(alpha=0.001), 3, 1)).any()
        assert np.isinf(sample_tail(Burr(tau=1, lam=1e-5), 3, 1)).all()

    def test_burr_empirical_survival(self):
        # binomial 3-sigma band around the exact survival at x = 1
        draws = sample_tail(Burr(tau=1, lam=2), 10**6, seed=99)
        emp = np.mean(draws > 1.0)
        assert abs(emp - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 1e6)

    def test_pareto_empirical_survival(self):
        draws = sample_tail(Pareto(alpha=1, xmin=1), 10**6, seed=5)
        p = 0.1
        assert abs(np.mean(draws > 10.0) - p) < 3 * math.sqrt(p * (1 - p) / 1e6)

    @pytest.mark.parametrize("model, transform", [
        (Pareto(alpha=1), lambda u: 1.0 * u ** (-1.0 / 1.0)),
        (Pareto(alpha=2, xmin=3), lambda u: 3.0 * u ** (-1.0 / 2.0)),
        (Pareto(alpha=0.7), lambda u: 1.0 * u ** (-1.0 / 0.7)),
        (Burr(tau=1, lam=2), lambda u: np.expm1(np.log(u) / -2.0) ** (1.0 / 1.0)),
        (Burr(tau=0.5, lam=3), lambda u: np.expm1(np.log(u) / -3.0) ** (1.0 / 0.5)),
    ])
    def test_matches_out_of_place_inversion(self, model, transform):
        # the in-place transform equals the closed-form inverse survival
        # applied to 1 - U on fresh arrays, bit for bit
        for seed in (0, 2**64 - 1):
            u = 1.0 - _stream(seed, 0).random(5000)
            assert sample_tail(model, 5000, seed).tobytes() == transform(u).tobytes()


class TestSampleTruncated:
    def _spec(self, **kw):
        base = dict(
            tail=Pareto(alpha=1, xmin=1),
            light=Zero(),
            truncation=TruncationScheme(A=1.0, delta=0.8),
            n=2000,
            seed=7,
        )
        base.update(kw)
        return TruncatedSampleSpec(**base)

    def test_zero_light_pins_to_threshold(self):
        spec = self._spec()
        m = spec.truncation.threshold(spec.n)
        sample = sample_truncated(spec)
        heavy = sample_tail(spec.tail, spec.n, spec.seed)
        assert sample.ordered[0] <= m
        assert np.count_nonzero(sample.values == m) == np.count_nonzero(heavy > m)

    def test_huge_delta_means_no_truncation(self):
        spec = self._spec(truncation=TruncationScheme(A=1.0, delta=5.0))
        sample = sample_truncated(spec)
        heavy = sample_tail(spec.tail, spec.n, spec.seed)
        assert np.array_equal(sample.values, heavy)

    def test_decomposition_before_sorting(self):
        # X_j >= M_n exactly when the heavy draw exceeded M_n, since L >= 0
        spec = self._spec(light=Exponential(rate=1.0), n=5000, seed=3)
        m = spec.truncation.threshold(spec.n)
        sample = sample_truncated(spec)
        heavy = sample_tail(spec.tail, spec.n, spec.seed)
        assert np.array_equal(sample.values >= m, heavy > m)
        assert np.array_equal(sample.values[heavy <= m], heavy[heavy <= m])
        assert np.all(sample.values[heavy > m] >= m)

    def test_truncated_fraction_binomial_bound(self):
        spec = self._spec(n=10**5)
        m = spec.truncation.threshold(spec.n)
        p = 1.0 / m  # survival of Pareto(1, 1) at m = n**0.8
        frac = np.count_nonzero(sample_truncated(spec).values >= m) / spec.n
        assert abs(frac - p) < 3 * math.sqrt(p * (1 - p) / spec.n)

    def test_seed_stability(self):
        spec = self._spec(light=Uniform(b=2.0), seed=123)
        a = sample_truncated(spec).values
        b = sample_truncated(spec).values
        assert a.tobytes() == b.tobytes()

    def test_light_models_sample_support(self):
        spec = self._spec(light=Uniform(b=0.5), n=4000, seed=9)
        m = spec.truncation.threshold(spec.n)
        vals = sample_truncated(spec).values
        bumped = vals[vals >= m]
        assert np.all(bumped < m + 0.5)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            self._spec(n=0)
        with pytest.raises(ValueError, match="n must be"):
            self._spec(n=True)
        with pytest.raises(ValueError, match="seed"):
            self._spec(seed=True)
        with pytest.raises(ValueError, match="seed"):
            self._spec(seed=-1)
        with pytest.raises(ValueError, match="seed"):
            self._spec(seed=2**64)


@dataclass(frozen=True)
class CountingExponential(Exponential):
    """Exponential excess that records how many values each call draws."""

    calls: list = field(default_factory=list, compare=False)

    def sample(self, rng, n):
        self.calls.append(n)
        return super().sample(rng, n)


def drawing_every_excess(spec):
    """The straight-line threshold rule: all n heavy draws and all n excesses."""
    m = spec.truncation.threshold(spec.n)
    heavy = sample_tail(spec.tail, spec.n, spec.seed)
    big = heavy > m
    heavy[big] = m + spec.light.sample(_stream(spec.seed, 1), spec.n)[big]
    return heavy


class TestLightDrawsOnlyWhereCapped:
    """sample_truncated draws light excesses only in the blocks that hold a
    capped position and advances the stream past the rest; the result must
    equal the straight-line rule that draws all n excesses."""

    # Pareto(1, 1) with delta ~ 0 caps each value with probability ~ 1/A
    CAPPING = {"none": 1e300, "sparse": 1e4, "dense": 3.0, "total": 0.5}

    @classmethod
    def _spec(cls, light, n, seed, capping):
        trunc = TruncationScheme(A=cls.CAPPING[capping], delta=1e-12)
        return TruncatedSampleSpec(Pareto(alpha=1), light, trunc, n, seed)

    # every light model: one that used more than one uniform per value would
    # no longer line up with the skipped blocks and fail here
    @pytest.mark.parametrize("light_cls", typing.get_args(LightTailModel))
    @pytest.mark.parametrize("capping", list(CAPPING))
    def test_matches_drawing_every_excess(self, light_cls, capping):
        for n in (1, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 10**5):
            for seed in (0, 2**64 - 1):
                spec = self._spec(light_cls(), n, seed, capping)
                got = sample_truncated(spec).values
                assert got.tobytes() == drawing_every_excess(spec).tobytes(), (n, seed)

    def test_draw_count(self):
        n = 10**5
        for capping in ("none", "sparse", "total"):
            light = CountingExponential()
            spec = self._spec(light, n, 3, capping)
            m = spec.truncation.threshold(n)
            capped = int(np.count_nonzero(sample_tail(spec.tail, n, spec.seed) > m))
            sample_truncated(spec)
            drawn = sum(light.calls)
            assert drawn <= _BLOCK * capped
            if capping == "sparse":
                assert 0 < capped and drawn < n
            if capping == "total":
                assert capped == n and light.calls == [n]

    @pytest.mark.parametrize("capping", ["sparse", "dense", "total"])
    @pytest.mark.parametrize("n", [_BLOCK - 1, 2 * _BLOCK + 1, 10**5])
    def test_one_call_per_run_of_marked_blocks(self, capping, n):
        light = CountingExponential()
        spec = self._spec(light, n, 3, capping)
        capped = np.flatnonzero(sample_tail(spec.tail, n, spec.seed) > spec.truncation.threshold(n))
        runs = []  # [first, last + 1) of each run of consecutive marked blocks
        for b in sorted(set((capped // _BLOCK).tolist())):
            if runs and runs[-1][1] == b:
                runs[-1][1] = b + 1
            else:
                runs.append([b, b + 1])
        sample_truncated(spec)
        assert light.calls == [min(hi * _BLOCK, n) - lo * _BLOCK for lo, hi in runs]


generic_tails = st.one_of(
    st.builds(Pareto, alpha=st.floats(0.2, 6), xmin=st.floats(0.01, 100)),
    st.builds(Burr, tau=st.floats(0.2, 6), lam=st.floats(0.1, 6)),
)
light_models = st.sampled_from([Zero(), Exponential(rate=1.0), Exponential(rate=0.05), Uniform(b=2.0)])
block_edge_sizes = st.one_of(
    st.sampled_from([1, 2, 3, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]),
    st.integers(1, 30_000),
)
# share of draws above M_n ~ A (delta ~ 0): none, sparse, dense or total
cappings = st.sampled_from([0.0, 1e-3, 0.3, 1.0])


def capping_scheme(tail, p: float) -> TruncationScheme:
    """A threshold that caps about a share p of the heavy draws."""
    a = 1e300 if p == 0.0 else 1e-300 if p == 1.0 else tail.quantile_b(1.0 / p)
    return TruncationScheme(A=a, delta=1e-12)


class TestTailSurvivals:
    """_tail_survivals selects on raw Philox words; it must give the positions
    where 1 - Generator.random(n) <= s_cut and, bit for bit, those doubles."""

    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
                                   _RAW_CHUNK - 1, _RAW_CHUNK, _RAW_CHUNK + 1, 10**5])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_matches_comparing_doubles(self, n, seed):
        words = _stream(seed, 0).bit_generator.random_raw(n)
        u = _stream(seed, 0).random(n)
        # the word-to-double map the selection relies on
        assert u.tobytes() == ((words >> np.uint64(11)) * 2.0**-53).tobytes()
        s = 1.0 - u
        lowest = np.sort(s)[:3]  # one, two and three qualifying words
        cuts = [0.0, 5e-324, 1e-300, 2.0**-53, 0.5, 1.0 - 2.0**-52, np.nextafter(1.0, 0.0)]
        # the grid points at and below the smallest drawn s, and the median;
        # one step either side of each tells floor from ceil and j from j +- 1
        for grid in (*lowest, lowest - 2.0**-53, np.median(s)):
            for g in np.atleast_1d(grid):
                cuts += [g, np.nextafter(g, 0.0), np.nextafter(g, 1.0)]
        for cut in cuts:
            where, got = _tail_survivals(n, seed, float(cut))
            want = np.flatnonzero(s <= cut)
            assert np.array_equal(where, want), (cut, where.size, want.size)
            assert got.tobytes() == s[want].tobytes(), cut
        assert _tail_survivals(n, seed, float(lowest[0]))[0].size == 1
        assert _tail_survivals(n, seed, float(np.nextafter(lowest[0], 0.0)))[0].size == 0


class TestTailSample:
    """_truncated(spec, s_cut) holds the top of the sample that
    sample_truncated(spec) draws: the same values at the positions whose
    heavy survival probability is at most s_cut, and every other value lies
    at or below its floor."""

    @settings(max_examples=80, deadline=None)
    @given(generic_tails, light_models, block_edge_sizes, cappings,
           st.integers(0, 2**64 - 1), st.floats(-9, -1e-6))
    def test_holds_the_top_of_the_whole_sample(self, tail, light, n, p, seed, log_cut):
        s_cut = 10.0**log_cut
        spec = TruncatedSampleSpec(tail, light, capping_scheme(tail, p), n, seed)
        whole = drawing_every_excess(spec)
        kept = 1.0 - _stream(seed, 0).random(n) <= s_cut
        with np.errstate(over="ignore"):
            floor = _tail_floor(tail, s_cut)
        try:
            top = _truncated(spec, s_cut)
        except _TailTooShort:
            # it would leave out a capped value, or hold nothing above its floor
            assert floor >= spec.truncation.threshold(n) or not np.any(whole[kept] > floor)
            return
        assert np.all(whole[~kept] <= floor)
        assert top.values.tobytes() == whole[kept].tobytes()
        assert (top.n, top.floor, top.maximum) == (n, floor, whole.max())

    # extreme exponents and scales, where log, expm1 and ** lose the most
    EXTREME = [Pareto(alpha=a, xmin=x) for a in (1e-3, 1.0, 1e6) for x in (1e-300, 1.0, 1e300)]
    EXTREME += [Burr(tau=t, lam=lam) for t in (1e-3, 1.0, 1e6) for lam in (1e-5, 1.0, 1e6)]

    @pytest.mark.parametrize("tail", EXTREME)
    @settings(max_examples=25, deadline=None)
    @given(log_cut=st.floats(-320, -1e-9))
    def test_floor_bounds_every_value_left_out(self, tail, log_cut):
        s_cut = 10.0**log_cut
        # the survival probabilities just above the cut: its next 2000
        # doubles, then relative steps out to 1e-3
        ulp = np.spacing(s_cut)
        s = np.concatenate([s_cut + ulp * np.arange(1, 2001),
                            s_cut * (1.0 + np.geomspace(1e-12, 1e-3, 200))])
        s = s[(s > s_cut) & (s <= 1.0)]
        with np.errstate(over="ignore"):
            assert np.all(tail._inverse_survival(s) <= _tail_floor(tail, s_cut))

    @pytest.mark.parametrize("a, why", [(1e300, "no value above the floor"),
                                        (1.0, "is not below M_n")])
    def test_too_short_tails_raise(self, a, why):
        # at s_cut = 1e-12 no value of 100 is kept; the floor, 1e12, is above M_n = 10
        spec = TruncatedSampleSpec(Pareto(alpha=1), Zero(), TruncationScheme(A=a), 100, 1)
        with pytest.raises(_TailTooShort, match=why):
            _truncated(spec, 1e-12)


class TestModelValidation:
    @pytest.mark.parametrize("bad", [0, -1, math.nan, math.inf])
    def test_positive_fields(self, bad):
        with pytest.raises(ValueError):
            Pareto(alpha=bad)
        with pytest.raises(ValueError):
            Burr(tau=1, lam=bad)
        with pytest.raises(ValueError):
            TruncationScheme(A=1, delta=bad)
        with pytest.raises(ValueError):
            Exponential(rate=bad)

    def test_exponential_rate_too_small_for_finite_draws(self):
        with pytest.raises(ValueError, match="rate"):
            Exponential(rate=1e-320)
        with pytest.raises(ValueError, match="rate"):
            parse_light_model("exp:rate=1e-320")
        # the largest draw, 53*log(2)/rate, is still finite here
        draws = Exponential(rate=1e-300).sample(np.random.default_rng(0), 1000)
        assert np.all(np.isfinite(draws))

    def test_threshold_overflow_rejected(self):
        # float ** float raises OverflowError; A * n**delta can reach inf
        with pytest.raises(ValueError, match=r"overflows at n = 100: A = 1.0, delta = 1000.0"):
            TruncationScheme(A=1.0, delta=1000.0).threshold(100)
        with pytest.raises(ValueError, match=r"overflows at n = 10: A = 1e\+308, delta = 1.0"):
            TruncationScheme(A=1e308, delta=1.0).threshold(10)
        assert TruncationScheme(A=1, delta=1000).threshold(1) == 1.0

    def test_threshold_increases(self):
        t = TruncationScheme(A=2.0, delta=0.5)
        ms = [t.threshold(n) for n in (1, 10, 100, 10**6)]
        assert ms == sorted(ms)
        assert ms[0] == 2.0


class TestGrammar:
    def test_tail_forms(self):
        assert parse_tail_model("pareto:alpha=2,xmin=1") == Pareto(alpha=2, xmin=1)
        assert parse_tail_model("PARETO:Alpha=2") == Pareto(alpha=2, xmin=1)
        assert parse_tail_model("burr:tau=1,lambda=2") == Burr(tau=1, lam=2)
        assert parse_tail_model(" Burr : TAU=1.5 , Lambda=0.5 ") == Burr(tau=1.5, lam=0.5)

    def test_light_forms(self):
        assert parse_light_model("light:zero") == Zero()
        assert parse_light_model("zero") == Zero()
        assert parse_light_model("exp:rate=2") == Exponential(rate=2)
        assert parse_light_model("light:exp") == Exponential(rate=1)
        assert parse_light_model("uniform:b=1") == Uniform(b=1)

    def test_trunc_forms(self):
        assert parse_truncation("trunc:A=1,delta=0.8") == TruncationScheme(A=1, delta=0.8)
        assert parse_truncation("a=2,DELTA=0.5") == TruncationScheme(A=2, delta=0.5)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_tail_model("pareto:alpha=2,scale=1")
        with pytest.raises(ValueError, match="unknown key"):
            parse_truncation("A=1,delta=0.8,m=3")

    def test_missing_or_malformed(self):
        with pytest.raises(ValueError, match="missing required key"):
            parse_tail_model("burr:tau=1")
        with pytest.raises(ValueError, match="not a number"):
            parse_tail_model("pareto:alpha=two")
        with pytest.raises(ValueError, match="unknown tail model"):
            parse_tail_model("cauchy:alpha=1")
        with pytest.raises(ValueError, match="unknown light tail"):
            parse_light_model("light:gamma")
        with pytest.raises(ValueError, match="no parameters"):
            parse_light_model("zero:rate=1")
        with pytest.raises(ValueError, match="duplicate"):
            parse_truncation("A=1,a=2,delta=0.5")


# edge branches of the laws, the threshold rule and the grammar: an error
# names the bad value, an edge value is returned as computed
@pytest.mark.parametrize("call, expected", [
    (lambda: Burr(tau=1, lam=2).slowly_varying(0.0), 0.0),
    # -tau * log(x) > 690, where l(x) ~ x**alpha = x for alpha = 1
    (lambda: Burr(tau=2, lam=0.5).slowly_varying(1e-200), pytest.approx(1e-200, rel=1e-12)),
    (lambda: Burr(tau=1, lam=2).second_order_auxiliary(0.0), ValueError("t must be positive, got 0.0")),
    (lambda: TruncationScheme().threshold(0), ValueError("need n >= 1, got 0")),
    (lambda: parse_tail_model("pareto:alpha"), ValueError("pareto: expected key=value, got 'alpha'")),
    (lambda: TruncatedSampleSpec(Pareto(alpha=1), Zero(), TruncationScheme(), 2**63, 0),
     ValueError(f"got {2**63}")),
], ids=["burr-l-at-0", "burr-l-underflow", "burr-A-at-0", "threshold-n-0", "grammar-no-value", "n-too-large"])
def test_edge_and_error_branches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
