import json
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from trunctail import (
    AdaptiveParams,
    Burr,
    DegenerateSampleError,
    ExperimentSpec,
    Exponential,
    InsufficientTailDataError,
    Pareto,
    SampleData,
    TruncatedSampleSpec,
    TruncationScheme,
    Zero,
    adaptive_k,
    c_statistic_trend,
    delta_feasible_range,
    estimate,
    hill_curve,
    hill_statistic,
    report_for_parameters,
    sample_c_statistic,
    sample_tail,
    sample_truncated,
    tilde_k,
    u_count,
    v_count,
)
from trunctail.estimator import _adopt, _TailTooShort

LOG2 = math.log(2.0)


class TestSampleData:
    def test_descending_order(self):
        s = SampleData([1, 5, 3])
        assert s.ordered.tolist() == [5, 3, 1]
        assert s.values.tolist() == [1, 5, 3]

    def test_ties_kept(self):
        assert SampleData([2, 2, 2]).ordered.tolist() == [2, 2, 2]

    def test_single_zero_allowed(self):
        assert SampleData([0]).ordered.tolist() == [0]

    def test_validation(self):
        with pytest.raises(ValueError, match="nonempty"):
            SampleData([])
        with pytest.raises(ValueError, match="nonnegative"):
            SampleData([1, -2])
        with pytest.raises(ValueError, match="finite"):
            SampleData([1, math.inf])
        with pytest.raises(ValueError, match="finite"):
            SampleData([1, math.nan])

    @pytest.mark.parametrize("values, message", [
        ([math.nan], "finite"),
        ([1.0, math.nan, 2.0], "finite"),
        # min and max of these are NaN too; the finite message still wins
        ([-1.0, math.nan], "finite"),
        ([math.nan, -3.0, 2.0], "finite"),
        ([1.0, math.inf], "finite"),
        ([-math.inf, 1.0], "finite"),
        ([-2.0, math.inf], "finite"),
        ([3.0, -1e-300], "nonnegative"),
        ([-5.0], "nonnegative"),
    ])
    def test_refused_with_the_first_rule_broken(self, values, message):
        with pytest.raises(ValueError, match=f"sample values must be {message}$"):
            SampleData(values)
        with pytest.raises(ValueError, match=f"sample values must be {message}$"):
            SampleData(np.array(values * 3000))

    def test_negative_zero_accepted(self):
        s = SampleData([-0.0, 2.0, 0.0])
        assert s.maximum == 2.0
        assert s.ordered.tolist() == [2.0, 0.0, 0.0]
        assert SampleData([-0.0]).maximum == 0.0

    def test_maximum_is_the_largest_value(self):
        rng = np.random.default_rng(3)
        for x in ([0.0], [-0.0, 0.0], [5.0, 5.0, 1.0], rng.pareto(1.5, 5000)):
            x = np.array(x, dtype=float)
            assert SampleData(x).maximum == x.max()
            assert _adopt(x.copy()).maximum == x.max()
            assert _adopt(x.copy(), x.size + 7, -1.0).maximum == x.max()
            assert type(SampleData(x).maximum) is float
            assert type(_adopt(x.copy()).maximum) is float

    def test_owns_its_data(self):
        raw = np.array([3.0, 1.0])
        s = SampleData(raw)
        raw[0] = 99.0
        assert s.values.tolist() == [3.0, 1.0]

    def test_values_are_read_only(self):
        # a write into values would leave the sorted tail stale
        for s in (SampleData([3.0, 1.0]), _adopt(np.array([3.0, 1.0]), 4, 0.5)):
            with pytest.raises(ValueError):
                s.values[0] = 0.0
            s.top(1)
            with pytest.raises(ValueError):
                s.values[1] = 5.0


# Few distinct values give heavy ties; 0.0 exercises the zero order statistics.
# The seeded branch reaches sizes above the few hundred below which
# np.partition happens to leave its tail sorted, so the sort after it counts.
tied_samples = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    | st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
) | st.builds(
    lambda n, distinct, seed: np.random.default_rng(seed).integers(0, distinct, n) / 2.0,
    st.integers(1, 3000),
    st.integers(1, 10**6),
    st.integers(0, 2**32 - 1),
)


def full_sort_desc(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float), kind="stable")[::-1]


class TestTopK:
    """top(k) and everything built on it against a straight-line full sort."""

    @given(tied_samples, st.data())
    def test_any_call_sequence_matches_full_sort(self, values, data):
        n = len(values)
        desc = full_sort_desc(values)
        ks = data.draw(st.lists(st.sampled_from([1, n]) | st.integers(1, n), max_size=8))
        s = SampleData(values)
        for k in ks + [1, n, 1]:
            got = s.top(k)
            assert np.array_equal(got, desc[:k])
            assert not got.flags.writeable
        assert np.array_equal(s.ordered, desc)
        assert s.maximum == desc[0]

    @given(tied_samples, st.data())
    def test_forced_k_estimate_matches_full_sort(self, values, data):
        n = len(values)
        assume(n >= 2)
        k = data.draw(st.sampled_from([2, n]) | st.integers(2, n))
        desc = full_sort_desc(values)
        s = SampleData(values)
        if desc[k - 1] <= 0.0:
            with pytest.raises(DegenerateSampleError):
                estimate(s, k=k)
            return
        with np.errstate(over="ignore"):
            h = float(np.log(desc[:k] / desc[k - 1]).mean())
        if not math.isfinite(h) or h <= 0.0:
            with pytest.raises(DegenerateSampleError):
                estimate(s, k=k)
        else:
            assert estimate(s, k=k).h == h

    @given(tied_samples, st.data())
    def test_hill_curve_matches_full_sort(self, values, data):
        n = len(values)
        k_max = data.draw(st.sampled_from([1, n]) | st.integers(1, n))
        k_min = data.draw(st.integers(1, k_max))
        desc = full_sort_desc(values)
        s = SampleData(values)
        if desc[k_max - 1] <= 0.0:
            with pytest.raises(DegenerateSampleError):
                hill_curve(s, k_min, k_max)
            return
        logs = np.log(desc[:k_max])
        prefix = np.cumsum(logs)
        want = [prefix[k - 1] / k - logs[k - 1] for k in range(k_min, k_max + 1)]
        ks, hs = hill_curve(s, k_min, k_max)
        assert np.array_equal(ks, np.arange(k_min, k_max + 1))
        assert hs.tolist() == want


class TestTopOnlySample:
    """A sample holding only the values above its floor answers as the whole
    sample would, and raises _TailTooShort where the answer needs more."""

    def test_answers_or_raises(self):
        s = _adopt(np.array([9.0, 3.0, 7.0, 5.0]), n=10, floor=4.0)
        assert (s.n, s.maximum) == (10, 9.0)
        assert s.count_above(4.5) == 3
        with pytest.raises(_TailTooShort):
            s.count_above(4.0)
        assert s.top(3).tolist() == [9.0, 7.0, 5.0]
        with pytest.raises(_TailTooShort):
            s.top(4)  # X_(4) = 3 is held, but values left out may exceed it
        with pytest.raises(_TailTooShort):
            _adopt(np.array([9.0, 7.0]), n=10, floor=4.0).top(3)
        with pytest.raises(ValueError, match="k must be in"):
            s.top(11)
        for held in ([3.0], []):
            with pytest.raises(_TailTooShort):
                _adopt(np.array(held), n=10, floor=4.0)

    @given(tied_samples, st.data())
    def test_matches_the_whole_sample(self, values, data):
        whole = SampleData(values)
        x = whole.values
        floor = data.draw(st.sampled_from(sorted(set(x.tolist()))))
        # every value above the floor, and any of those at or below it
        extra = np.array(data.draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
        held = x[(x > floor) | extra]
        if not np.any(x > floor):
            with pytest.raises(_TailTooShort):
                _adopt(held, x.size, floor)
            return
        top = _adopt(held, x.size, floor)
        assert top.maximum == whole.maximum
        for level in {floor, *x.tolist()}:
            if level > floor:
                assert top.count_above(level) == whole.count_above(level)
            else:
                with pytest.raises(_TailTooShort):
                    top.count_above(level)
        desc = full_sort_desc(x)
        for k in range(1, x.size + 1):
            if desc[k - 1] > floor:
                assert top.top(k).tobytes() == whole.top(k).tobytes()
            else:
                with pytest.raises(_TailTooShort):
                    top.top(k)


class _Unread:
    """Stands in for a sample's values; a count that compares them fails.
    Slices of ``held`` shorter than all of it read through."""

    def __init__(self, held=None):
        self.held = held

    def __gt__(self, level):
        raise AssertionError("count_above read the values")

    def __getitem__(self, key):
        part = self.held[key]
        if part.size == self.held.size:
            raise AssertionError("read every value")
        return part


class TestSortedTail:
    """top(k) and count_above share one sorted tail that grows across calls;
    any interleaving answers as the straight-line references do."""

    @given(tied_samples, st.data())
    def test_interleaved_calls_match_references(self, values, data):
        x = np.array(values, dtype=float)
        n = x.size
        floor = data.draw(st.sampled_from([-math.inf, *sorted(set(x.tolist()))]))
        if floor == -math.inf:
            held = x
            sample = SampleData(values)
        elif np.any(x > floor):
            # every value above the floor, and any of those at or below it
            extra = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(n) < 0.5
            held = x[(x > floor) | extra]
            sample = _adopt(held.copy(), n, floor)
        else:
            return
        desc, held_desc = full_sort_desc(x), full_sort_desc(held)
        # "tail" counts at the smallest sorted value, whatever the tail is then
        calls = data.draw(st.lists(
            st.tuples(st.just("top"), st.sampled_from([1, n]) | st.integers(1, n))
            | st.tuples(st.just("count"), st.sampled_from([floor, *x.tolist()]))
            | st.just(("count", "tail")),
            max_size=12,
        ))
        returned = []
        for call, arg in calls:
            if arg == "tail":
                arg = held_desc[max(sample._sorted, 1) - 1]
            if call == "top" and desc[arg - 1] > floor:
                got = sample.top(arg)
                assert np.array_equal(got, desc[:arg])
                returned.append((got, got.tobytes()))
            elif call == "top":
                with pytest.raises(_TailTooShort):
                    sample.top(arg)
            elif arg > floor:
                want = int(np.count_nonzero(x > arg))
                assert sample.count_above(arg) == want
                if sample._sorted and arg >= held_desc[sample._sorted - 1]:
                    # within the sorted tail, ties with its smallest entry
                    # included, the count reads only the tail
                    kept, sample.values = sample.values, _Unread()
                    try:
                        assert sample.count_above(arg) == want
                    finally:
                        sample.values = kept
            else:
                with pytest.raises(_TailTooShort):
                    sample.count_above(arg)
            # returned arrays are views of the tail: later calls keep them
            assert all(got.tobytes() == raw for got, raw in returned)
        assert sample.values.tobytes() == held.tobytes()

    @staticmethod
    def _split_sample():
        """n = 24,576 values in shuffled order, with few distinct values and
        one run of ties across rank n/8."""
        n = 24_576
        desc = np.sort(np.random.default_rng(23).integers(0, 5000, n) / 4.0)[::-1]
        desc[n // 8 - 40 : n // 8 + 40] = desc[n // 8]
        return np.random.default_rng(24).permutation(desc), np.ascontiguousarray(desc)

    @pytest.mark.parametrize("ks", [
        # the first extension sorts the top n/8; later ones stay within the
        # tail, land on its edge, or pass it and at least double it
        [1, 100, 2_000, 3_071, 3_072, 3_073, 6_000, 24_576],
        [3_073, 3_072, 3_000, 1_000, 3_080, 20_000, 3_071, 24_576],
        [3_072, 5, 3_072, 12_000, 3_100, 7_000, 2],
        [2_900, 1_500, 3_500, 3_000, 24_000],
        [24_576, 3_072, 1],
    ])
    def test_split_off_top_eighth_matches_references(self, ks):
        x, desc = self._split_sample()
        n = x.size
        sample = SampleData(x)
        levels = [desc[j] for j in (0, 99, 1_023, n // 8 - 41, n // 8, n // 8 + 40, 2 * n // 3)]
        returned = []
        for k in ks:
            got = sample.top(k)
            assert got.tobytes() == desc[:k].tobytes()
            assert sample._sorted >= n // 8
            returned.append((got, got.tobytes()))
            for level in levels + [desc[k - 1], desc[sample._sorted - 1]]:
                assert sample.count_above(level) == np.count_nonzero(x > level)
            assert all(got.tobytes() == raw for got, raw in returned)
        assert sample.ordered.tobytes() == desc.tobytes()
        assert sample.values.tobytes() == x.tobytes()

    def test_split_blocks_over_many_shuffles(self):
        # distinct values, so no tie hides a value that an extension's
        # partition left out of the sorted tail; numpy's partition seldom does
        # so by chance, hence the many shuffles. The tail grows 4,096, 8,192,
        # 16,384, 32,768.
        n = 32_768
        desc = np.arange(n, 0, -1) / 4.0
        rng = np.random.default_rng(29)
        for _ in range(150):
            sample = SampleData(rng.permutation(desc))
            for k in (1, 4_000, 4_100, 2_000, 9_000, 16_385):
                assert sample.top(k).tobytes() == desc[:k].tobytes()

    @given(tied_samples, st.data())
    def test_tail_grows_to_the_top_eighth_and_at_least_doubles(self, values, data):
        sample = SampleData(values)
        size = sample.values.size
        for k in data.draw(st.lists(st.integers(1, size), min_size=1, max_size=8)):
            before = sample._sorted
            sample.top(k)
            assert sample._sorted >= min(size, max(k, size // 8))
            if before and sample._sorted != before:
                assert sample._sorted >= min(size, 2 * before)

    def test_trend_equals_fresh_prefixes_and_reads_no_values(self):
        x, _ = self._split_sample()
        params = AdaptiveParams()
        sizes = (x.size // 4, x.size // 2, x.size)
        want = [sample_c_statistic(_adopt(x[:m].copy()), params) for m in sizes]
        fresh = c_statistic_trend(SampleData(x), params)
        assert fresh.sizes == sizes
        assert [v.hex() for v in fresh.values] == [v.hex() for v in want]
        sample = SampleData(x)
        sample.top(v_count(sample, params.gamma) + 1)
        # the tail now covers V_n, so the length-n prefix reads no values
        kept, sample.values = sample.values, _Unread(sample.values)
        try:
            trend = c_statistic_trend(sample, params)
        finally:
            sample.values = kept
        assert [v.hex() for v in trend.values] == [v.hex() for v in want]

    def test_threads_sharing_a_sample_get_the_references(self):
        x = np.random.default_rng(11).pareto(1.5, 50_000).round(1)
        desc = full_sort_desc(x)
        ks = [3, 2_000, 12_000, 20, 30_000, 700, x.size]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # about half the rounds catch a tail published before it is sorted
            for _ in range(20):
                sample = SampleData(x)
                start = threading.Barrier(6)
                wrong = []

                def scan(i):
                    try:
                        start.wait(timeout=30)
                        for k in ks[i:] + ks[:i]:
                            if not np.array_equal(sample.top(k), desc[:k]):
                                wrong.append(("top", k))
                            level = desc[k - 1]
                            if sample.count_above(level) != np.count_nonzero(x > level):
                                wrong.append(("count", k))
                    except Exception as exc:  # reported below, not lost in the thread
                        wrong.append(("raised", repr(exc)))

                threads = [threading.Thread(target=scan, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert wrong == []
        finally:
            sys.setswitchinterval(interval)


HUNDRED = SampleData(np.arange(1.0, 101.0))


@pytest.mark.parametrize("name, call", [
    pytest.param("k", lambda: estimate(HUNDRED, k=2.5), id="estimate-float"),
    pytest.param("k", lambda: estimate(HUNDRED, k=np.float64(3)), id="estimate-np.float64"),
    pytest.param("k", lambda: estimate(HUNDRED, k=True), id="estimate-bool"),
    pytest.param("k", lambda: HUNDRED.top(3.0), id="top-float"),
    pytest.param("k", lambda: HUNDRED.top(True), id="top-bool"),
    pytest.param("k", lambda: hill_statistic(HUNDRED, 3.0), id="hill_statistic"),
    pytest.param("k_max", lambda: hill_curve(HUNDRED, 2, 50.0), id="hill_curve-k_max"),
    pytest.param("k_min", lambda: hill_curve(HUNDRED, np.float32(2), 50), id="hill_curve-k_min"),
])
def test_non_integer_k_is_refused_by_name(name, call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert re.search(rf"\b{name}\b", message) and "integer" in message, message
    assert "slice indices" not in message and "Exceeds the limit" not in message


def test_numpy_integer_k_is_taken():
    assert estimate(HUNDRED, k=np.int64(40)) == estimate(HUNDRED, k=40)
    assert HUNDRED.top(np.uint8(3)).tolist() == [100.0, 99.0, 98.0]
    assert [a.tolist() for a in hill_curve(HUNDRED, np.int32(2), np.int64(9))] == \
        [a.tolist() for a in hill_curve(HUNDRED, 2, 9)]


class TestHillStatistic:
    def test_hand_example(self):
        s = SampleData([8, 4, 2, 1])
        assert hill_statistic(s, 2) == pytest.approx(LOG2 / 2, abs=1e-12)

    def test_overflowing_ratio_rejected(self):
        # X_(1)/X_(2) = 1e6/5e-324 overflows to inf in double precision
        s = SampleData([1e6, 5e-324])
        with pytest.raises(DegenerateSampleError, match="overflows"):
            hill_statistic(s, 2)
        with pytest.raises(DegenerateSampleError, match="overflows"):
            estimate(s, k=2)

    def test_all_equal_gives_zero(self):
        assert hill_statistic(SampleData([5, 5, 5]), 3) == 0.0

    def test_bits_of_the_mean_log_ratio(self):
        # the log is taken in place in the ratio buffer; the bits are those
        # of a fresh log array's mean
        rng = np.random.default_rng(17)
        for x, ks in [
            (rng.pareto(1.5, 30_000), (2, 3, 100, 1_024, 1_025, 3_750, 20_000, 30_000)),
            (np.round(rng.pareto(0.7, 5_000), 1) + 0.1, (2, 17, 999, 5_000)),
            (np.array([1e300, 1e-300, 2e-300, 1.0]), (2, 3, 4)),
        ]:
            s = SampleData(x)
            for k in ks:
                top = s.top(k)
                with np.errstate(over="ignore"):
                    want = float(np.log(top / top[-1]).mean())
                if math.isfinite(want):
                    assert hill_statistic(s, k).hex() == want.hex()
                else:
                    with pytest.raises(DegenerateSampleError, match="overflows"):
                        hill_statistic(s, k)
        # 1e300/1e-300 overflows: the same refusal as a fresh log array gives
        s = SampleData([1e300, 1e-300])
        with np.errstate(over="ignore"):
            assert float(np.log(s.top(2) / 1e-300).mean()) == math.inf
        with pytest.raises(DegenerateSampleError, match="overflows"):
            hill_statistic(s, 2)

    def test_k_range_checked(self):
        s = SampleData([3, 2, 1])
        with pytest.raises(ValueError, match="k must be"):
            hill_statistic(s, 0)
        with pytest.raises(ValueError, match="k must be"):
            hill_statistic(s, 4)

    def test_zero_order_statistic_rejected(self):
        with pytest.raises(DegenerateSampleError):
            hill_statistic(SampleData([2, 1, 0]), 3)

    def test_pareto_quantile_grid(self):
        # deterministic grid X_i = ((i - 0.5)/n)**(-1/alpha); independent
        # oracle is the same sum accumulated with math.fsum term by term
        n, k, alpha = 10**4, 100, 2.0
        grid = ((np.arange(1, n + 1) - 0.5) / n) ** (-1.0 / alpha)
        s = SampleData(grid)
        h = hill_statistic(s, k)
        top = sorted(grid, reverse=True)
        oracle = math.fsum(math.log(top[i] / top[k - 1]) for i in range(k)) / k
        assert h == pytest.approx(oracle, abs=1e-12)
        assert abs(h - 0.5) < 0.1


class TestCounts:
    def test_v_count_strict(self):
        s = SampleData([10, 6, 5, 1])
        assert v_count(s, 0.5) == 2  # threshold 5 itself is excluded
        assert v_count(s, 0.49) == 3

    def test_v_count_near_one(self):
        assert v_count(SampleData([10, 6, 5, 1]), 0.99) == 1

    def test_v_count_errors(self):
        with pytest.raises(DegenerateSampleError):
            v_count(SampleData([0, 0]), 0.5)
        with pytest.raises(ValueError, match="gamma"):
            v_count(SampleData([1, 2]), 1.0)

    def test_adaptive_k_floor(self):
        # n = 100 with V = 25: 25 values clear half the maximum
        values = [60.0] * 25 + [1.0] * 75
        s = SampleData(values)
        assert v_count(s, 0.5) == 25
        assert adaptive_k(s, AdaptiveParams(beta=0.5, gamma=0.5)) == 50

    def test_adaptive_k_small_sample(self):
        s = SampleData([10, 6, 5, 1])
        assert adaptive_k(s, AdaptiveParams(beta=0.5, gamma=0.5)) == 2  # floor(2.828...)

    def test_adaptive_k_full_sample(self):
        s = SampleData([5, 5, 5])
        assert v_count(s, 0.5) == 3
        assert adaptive_k(s, AdaptiveParams(beta=0.37, gamma=0.5)) == 3

    def test_u_count(self):
        s = SampleData([10, 6, 5, 1])
        assert u_count(s, 0.5, 10.0) == 2
        assert u_count(s, 0.9, 20.0) == 0

    def test_tilde_k(self):
        assert tilde_k(16, 4, 0.5) == 8
        assert tilde_k(100, 0, 0.5) == 0
        assert tilde_k(100, 100, 0.73) == 100

    def test_tilde_k_validation(self):
        with pytest.raises(ValueError, match="u must be"):
            tilde_k(10, 11, 0.5)
        with pytest.raises(ValueError, match="beta"):
            tilde_k(10, 5, 1.0)

    def test_adaptive_k_monotone_in_count(self):
        for beta in (0.2, 0.5, 0.8):
            ks = [tilde_k(1000, u, beta) for u in range(0, 1001)]
            assert ks == sorted(ks)


class TestAdaptiveParams:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5])
    def test_open_interval_enforced(self, bad):
        with pytest.raises(ValueError, match="beta"):
            AdaptiveParams(beta=bad, gamma=0.5)
        with pytest.raises(ValueError, match="gamma"):
            AdaptiveParams(beta=0.5, gamma=bad)

    def test_defaults(self):
        p = AdaptiveParams()
        assert (p.beta, p.gamma) == (0.7, 0.5)


class TestEstimate:
    def test_ci_formula(self):
        # exp-spaced sample with forced k = 400 makes h exactly 0.5
        k = 400
        values = np.exp((k - np.arange(1, k + 1)) / 399.0)
        est = estimate(SampleData(values), k=k, level=0.95)
        assert est.h == pytest.approx(0.5, abs=1e-12)
        assert est.se == pytest.approx(0.025, abs=1e-12)
        assert est.ci_lo == pytest.approx(0.45100, abs=1e-5)
        assert est.ci_hi == pytest.approx(0.54900, abs=1e-5)
        assert est.k_hat == k
        assert est.alpha_hat == pytest.approx(2.0, abs=1e-12)
        lo, hi = est.alpha_ci
        assert lo == pytest.approx(1 / est.ci_hi, abs=1e-12)
        assert hi == pytest.approx(1 / est.ci_lo, abs=1e-12)

    def test_all_equal_sample_rejected(self):
        with pytest.raises(DegenerateSampleError, match="degenerate"):
            estimate(SampleData([5.0] * 50), AdaptiveParams(beta=0.5, gamma=0.5))

    def test_insufficient_tail_data(self):
        values = [100.0] + [1.0] * 999  # V = 1, so k = floor(1000**0.1) = 1
        with pytest.raises(InsufficientTailDataError, match="k = 1"):
            estimate(SampleData(values), AdaptiveParams(beta=0.9, gamma=0.5))

    @pytest.mark.parametrize("k", [None, 2, 4_000])
    def test_v_is_read_from_the_sorted_block(self, k, monkeypatch):
        x = sample_tail(Pareto(alpha=2), 5000, seed=3)
        want = estimate(SampleData(x), k=k)
        assert want.v_count < x.size // 8
        sample = SampleData(x)

        def no_pass(*args, **kwargs):
            raise AssertionError("V was counted over every value")

        monkeypatch.setattr(np, "count_nonzero", no_pass)
        assert estimate(sample, k=k) == want

    def test_zero_sample_fails_in_v_count_after_the_level(self):
        s = SampleData([0.0] * 20)
        with pytest.raises(ValueError, match="level"):
            estimate(s, level=1.0)
        for k in (None, 2, 21):
            with pytest.raises(DegenerateSampleError, match="sample maximum is 0"):
                estimate(s, k=k)

    def test_forced_k_validated(self):
        s = SampleData([8, 4, 2, 1])
        with pytest.raises(ValueError, match="forced k"):
            estimate(s, k=1)
        with pytest.raises(ValueError, match="forced k"):
            estimate(s, k=5)

    def test_level_validated(self):
        with pytest.raises(ValueError, match="level"):
            estimate(SampleData([8, 4, 2, 1]), level=1.0)

    def test_pinned_regression(self):
        # frozen from the first build at this exact spec and seed
        spec = TruncatedSampleSpec(
            tail=Burr(tau=1, lam=2),
            light=Exponential(rate=1.0),
            truncation=TruncationScheme(A=1.0, delta=0.45),
            n=100000,
            seed=12345,
        )
        est = estimate(sample_truncated(spec), AdaptiveParams(beta=0.8, gamma=0.5))
        assert est.k_hat == 96
        assert est.v_count == 17
        assert est.h == pytest.approx(0.507378846683636, abs=1e-12)
        assert abs(est.h - 0.5) < 4 * est.se

    def test_estimate_carries_invariants(self):
        s = SampleData(sample_tail(Pareto(alpha=2), 5000, seed=1))
        est = estimate(s, AdaptiveParams(beta=0.7, gamma=0.5))
        assert est.ci_lo <= est.h <= est.ci_hi
        assert est.se > 0
        assert est.alpha_hat == pytest.approx(1 / est.h, abs=1e-15)


class TestHillCurve:
    def test_hand_example(self):
        ks, hs = hill_curve(SampleData([8, 4, 2, 1]), 1, 2)
        assert (ks[0], hs[0]) == (1, 0.0)
        assert ks[1] == 2
        assert hs[1] == pytest.approx(LOG2 / 2, abs=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = SampleData(rng.pareto(1.5, 400) + 1.0)
            curve = dict(zip(*hill_curve(s, 1, 300)))
            for k in (1, 7, 100, 300):
                assert curve[k] == pytest.approx(hill_statistic(s, k), abs=1e-12)

    def test_bits_of_the_gathered_expression(self):
        x = np.random.default_rng(19).pareto(1.2, 20_000)
        s = SampleData(x)
        for k_max in (1, 50, 4_096, 20_000):
            logs = np.log(s.top(k_max))
            prefix = np.cumsum(logs)
            for k_min in sorted({1, min(2, k_max), min(3, k_max), k_max // 2 + 1, k_max}):
                ks = np.arange(k_min, k_max + 1)
                got_ks, hs = hill_curve(s, k_min, k_max)
                assert got_ks.tobytes() == ks.tobytes()
                assert hs.tobytes() == (prefix[ks - 1] / ks - logs[ks - 1]).tobytes()

    def test_consistent_at_adaptive_count(self):
        s = SampleData(sample_tail(Pareto(alpha=1), 2000, seed=8))
        k_hat = adaptive_k(s, AdaptiveParams(beta=0.7, gamma=0.5))
        curve = dict(zip(*hill_curve(s, 1, k_hat)))
        assert curve[k_hat] == pytest.approx(hill_statistic(s, k_hat), abs=1e-12)

    def test_range_validation(self):
        s = SampleData([3, 2, 1])
        with pytest.raises(ValueError, match="k_min"):
            hill_curve(s, 2, 1)
        with pytest.raises(DegenerateSampleError):
            hill_curve(SampleData([1, 0]), 1, 2)


class TestInvariances:
    @given(st.integers(-30, 30))
    def test_scale_invariance_exact_for_binary_scales(self, j):
        # scaling by powers of two is lossless in floats, so equality is exact
        c = 2.0**j
        base = np.array([9.5, 7.25, 3.0, 1.5, 1.0])
        s, cs = SampleData(base), SampleData(c * base)
        params = AdaptiveParams(beta=0.6, gamma=0.5)
        assert hill_statistic(cs, 3) == hill_statistic(s, 3)
        assert v_count(cs, 0.5) == v_count(s, 0.5)
        assert adaptive_k(cs, params) == adaptive_k(s, params)

    @given(st.floats(0.01, 100))
    def test_scale_invariance_generic(self, c):
        base = np.array([11.0, 8.0, 5.5, 2.0, 1.0, 0.5])
        s, cs = SampleData(base), SampleData(c * base)
        assert hill_statistic(cs, 4) == pytest.approx(hill_statistic(s, 4), rel=1e-12, abs=1e-12)

    @given(st.permutations(list(range(8))))
    def test_permutation_invariance(self, perm):
        base = np.array([13.0, 8.0, 8.0, 5.0, 3.0, 2.5, 1.0, 0.5])
        shuffled = base[np.array(perm)]
        s, ps = SampleData(base), SampleData(shuffled)
        params = AdaptiveParams(beta=0.6, gamma=0.4)
        assert hill_statistic(ps, 5) == hill_statistic(s, 5)
        assert v_count(ps, 0.4) == v_count(s, 0.4)
        assert adaptive_k(ps, params) == adaptive_k(s, params)

    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    def test_v_count_monotone_in_gamma(self, g1, g2):
        s = SampleData([10.0, 9.0, 6.5, 4.0, 2.0, 1.0])
        lo, hi = sorted((g1, g2))
        assert v_count(s, hi) <= v_count(s, lo)


class TestUntruncatedSanity:
    def test_mean_h_on_exact_pareto(self):
        # fixed k = floor(n**0.6), 200 pinned replications
        n, alpha = 10**4, 2.0
        k = int(n**0.6)
        hs = [
            hill_statistic(SampleData(sample_tail(Pareto(alpha=alpha), n, 9000 + r)), k)
            for r in range(200)
        ]
        tol = 3 * (1 / alpha) / math.sqrt(k * 200)
        assert abs(float(np.mean(hs)) - 1 / alpha) < tol


@pytest.mark.parametrize("call, message", [
    (lambda: u_count(SampleData([3.0, 2.0, 1.0]), 0.5, 0.0), "m must be positive, got 0.0"),
    (lambda: tilde_k(0, 0, 0.5), "need n >= 1, got 0"),
], ids=["u_count-m-0", "tilde_k-n-0"])
def test_error_branches_name_the_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


_SAMPLE = SampleData([8.0, 4.0, 2.0, 1.0, 0.5])


# every public check of the (0, 1) rule, each with the name it reports
@pytest.mark.parametrize("name, call", [
    ("beta", lambda v: AdaptiveParams(beta=v)),
    ("gamma", lambda v: AdaptiveParams(gamma=v)),
    ("gamma", lambda v: u_count(_SAMPLE, v, 8.0)),
    ("beta", lambda v: tilde_k(10, 5, v)),
    ("level", lambda v: estimate(_SAMPLE, level=v)),
    ("level", lambda v: ExperimentSpec(
        Pareto(alpha=1.0), Zero(), TruncationScheme(), AdaptiveParams(), (10,), 1, 0, level=v)),
    ("beta", lambda v: delta_feasible_range(2.0, v)),
    ("beta", lambda v: report_for_parameters(2.0, None, v, 0.45)),
], ids=["params-beta", "params-gamma", "u_count", "tilde_k", "estimate", "spec", "delta-window",
        "report"])
@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_unit_rule_names_the_parameter(name, call, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be in (0, 1), got {value}")):
        call(value)


class TestUnitRuleReturnsFloat:
    """The (0, 1) rule returns a Python float, which every caller stores or
    computes with, so a numpy real never narrows the arithmetic."""

    @pytest.mark.parametrize("value", [np.float32(0.8), np.float64(0.8)])
    def test_stored_fields_are_floats(self, value):
        params = AdaptiveParams(beta=value, gamma=value)
        spec = ExperimentSpec(Pareto(alpha=1.0), Zero(), TruncationScheme(), params, (10,), 1, 0, level=value)
        for stored in (params.beta, params.gamma, spec.level):
            assert type(stored) is float and stored == float(value)

    def test_float32_beta_counts_in_double(self):
        # numpy 2 computes (u/n)**beta in float32, one off at u = 2734 and 16 more u
        beta = np.float32(0.8)
        us = range(1, 20000)
        assert [tilde_k(10**6, u, beta) for u in us] == [tilde_k(10**6, u, float(beta)) for u in us]

    def test_float32_level_is_json_encodable(self):
        est = estimate(_SAMPLE, level=np.float32(0.95), k=3)
        assert type(est.level) is float
        assert json.loads(json.dumps(est.to_dict()))["level"] == float(np.float32(0.95))


class TestLevelEdge:
    TOP = math.nextafter(1.0, 0.0)  # 0.5 * (1 + TOP) rounds to 1

    def test_estimate_refuses_the_largest_double_below_one(self):
        with pytest.raises(ValueError, match=re.escape(f"level must be at most 1 - 2**-52, got {self.TOP}")):
            estimate(_SAMPLE, level=self.TOP)

    def test_spec_refuses_it_at_construction(self):
        with pytest.raises(ValueError, match="level must be at most 1 - 2[*][*]-52"):
            ExperimentSpec(Pareto(alpha=1.0), Zero(), TruncationScheme(), AdaptiveParams(), (10,), 1, 0,
                           level=self.TOP)

    def test_next_level_down_is_accepted(self):
        level = 1.0 - 2.0**-52
        est = estimate(_SAMPLE, level=level, k=3)
        assert est.level == level
        assert math.isfinite(est.ci_lo) and math.isfinite(est.ci_hi) and est.ci_lo < est.ci_hi
