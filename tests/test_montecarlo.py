import hashlib
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunctail import (
    AdaptiveParams,
    Burr,
    ExperimentError,
    ExperimentSpec,
    Exponential,
    Pareto,
    TruncatedSampleSpec,
    TruncationScheme,
    Uniform,
    Zero,
    montecarlo,
    normal_quantile,
    qq_points,
    replication_seed,
    run_experiment,
    run_replication,
    sample_truncated,
)
from trunctail.distributions import _GAP
from trunctail.montecarlo import _MAX_REPLICATIONS, _replicate, aggregate_json, qq_csv, replications_csv
from trunctail.normal import ks_distance

VALID = dict(
    tail=Burr(tau=1, lam=2),
    light=Exponential(rate=1.0),
    truncation=TruncationScheme(A=1.0, delta=0.45),
    params=AdaptiveParams(beta=0.8, gamma=0.5),
)


LIMIT = dict(
    tail=Pareto(alpha=1),
    light=Exponential(rate=1.0),
    truncation=TruncationScheme(A=1.0, delta=0.9),
    params=AdaptiveParams(beta=0.2, gamma=0.5),
)


def make_spec(n_list=(5000,), replications=10, base_seed=2, **kw):
    cfg = dict(VALID, n_list=n_list, replications=replications, base_seed=base_seed)
    cfg.update(kw)
    return ExperimentSpec(**cfg)


class TestReplicationSeed:
    def test_deterministic(self):
        assert replication_seed(11, 100000, 0) == replication_seed(11, 100000, 0)
        assert replication_seed(11, 100000, 0) == 3315707232688766573

    def test_distinct_streams(self):
        seeds = {
            replication_seed(b, n, i)
            for b in (1, 2)
            for n in (100, 200)
            for i in range(5)
        }
        assert len(seeds) == 20


class TestRunReplication:
    def test_deterministic(self):
        spec = make_spec()
        a = run_replication(spec, 5000, 3)
        b = run_replication(spec, 5000, 3)
        assert a == b

    def test_pinned_golden_triple(self):
        # frozen at first build for (base_seed=11, n=1e5, index=0)
        spec = make_spec(n_list=(100000,), replications=1, base_seed=11)
        r = run_replication(spec, 100000, 0)
        assert not r.failed
        assert r.k_hat == 41
        assert r.h == pytest.approx(0.3031669305421483, abs=1e-12)
        assert r.z == pytest.approx(-2.520693195547747, abs=1e-11)
        assert (r.u_count, r.tilde_k) == (7, 47)
        assert r.ci_covers is False
        assert math.isfinite(r.z)

    def test_straight_line_reimplementation_agrees(self):
        # recompute k, h, z directly from the simulated sample with nothing
        # but sorts, counts, logs and the floor
        from trunctail import TruncatedSampleSpec, sample_truncated

        spec = make_spec(n_list=(20000,), replications=1, base_seed=31)
        n, index = 20000, 0
        r = run_replication(spec, n, index)

        seed = replication_seed(spec.base_seed, n, index)
        sample = sample_truncated(
            TruncatedSampleSpec(spec.tail, spec.light, spec.truncation, n, seed)
        )
        x = np.sort(sample.values)[::-1]
        v = int(np.sum(sample.values > spec.params.gamma * x[0]))
        k = int(math.floor(n * (v / n) ** spec.params.beta))
        h = float(np.mean(np.log(x[:k] / x[k - 1])))
        alpha = spec.tail.alpha
        z = alpha * math.sqrt(k) * (h - 1.0 / alpha)
        assert r.k_hat == k
        assert r.h == pytest.approx(h, abs=1e-14)
        assert r.z == pytest.approx(z, abs=1e-12)

    def test_standardization_identity(self):
        spec = make_spec(replications=20)
        res = run_experiment(spec)
        alpha = spec.tail.alpha
        for r in res.replications:
            if r.failed:
                continue
            recovered = r.z / (alpha * math.sqrt(r.k_hat)) + 1.0 / alpha
            assert recovered == pytest.approx(r.h, abs=1e-14)

    def test_failure_is_recorded_not_raised(self):
        spec = make_spec(n_list=(1,), replications=2)  # n = 1 can never give k >= 2
        r = run_replication(spec, 1, 0)
        assert r.failed
        assert r.k_hat is None and r.z is None
        assert r.error


def whole_sample_replication(spec, n, index):
    """The replication on the whole sample: the reference for the tail path."""
    seed = replication_seed(spec.base_seed, n, index)
    draw = TruncatedSampleSpec(spec.tail, spec.light, spec.truncation, n, seed)
    return _replicate(spec, index, sample_truncated(draw), spec.truncation.threshold(n))


def outcome(replicate, spec, n, index):
    try:
        return replicate(spec, n, index)
    except ValueError as exc:
        return type(exc), str(exc)


class CountingFallbacks:
    """Patches the whole-sample draw that run_replication falls back to."""

    def __init__(self, mp):
        self.calls = 0
        draw = montecarlo.sample_truncated

        def counted(spec):
            self.calls += 1
            return draw(spec)

        mp.setattr(montecarlo, "sample_truncated", counted)


generic_tails = st.one_of(
    st.builds(Pareto, alpha=st.floats(0.2, 6), xmin=st.floats(0.01, 100)),
    st.builds(Burr, tau=st.floats(0.2, 6), lam=st.floats(0.1, 6)),
)


class TestTailPath:
    """run_replication runs on the top of the sample and falls back to the
    whole sample; either way it must equal the whole-sample replication."""

    @settings(max_examples=60, deadline=None)
    @given(
        tail=generic_tails,
        light=st.sampled_from([Zero(), Exponential(rate=1.0), Uniform(b=2.0)]),
        n=st.one_of(st.sampled_from([2, 3, _GAP - 1, _GAP, _GAP + 1, 2 * _GAP + 1]),
                    st.integers(1, 50_000)),
        # expected capped count: none, sparse, half or all of the sample
        capped=st.sampled_from(["none", "sparse", "half", "total"]),
        delta=st.floats(0.05, 1.0),
        beta=st.floats(0.05, 0.95),
        gamma=st.floats(0.05, 0.95),
        base_seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 10**6),
        # the cut's safety factor: as shipped, tight enough that some
        # replications fall back, or so small that all do
        safety=st.sampled_from([montecarlo._CUT_SAFETY, 1.0, 0.25, 1e-12]),
    )
    def test_equals_the_whole_sample(self, tail, light, n, capped, delta, beta, gamma,
                                     base_seed, index, safety):
        share = {"none": 0.0, "sparse": min(1.0, 3.0 / n), "half": 0.5, "total": 1.0}[capped]
        m = 1e300 if share == 0.0 else 1e-300 if share == 1.0 else tail.quantile_b(1.0 / share)
        spec = make_spec(n_list=(n,), replications=1, base_seed=base_seed, tail=tail, light=light,
                         truncation=TruncationScheme(A=m / n**delta, delta=delta),
                         params=AdaptiveParams(beta=beta, gamma=gamma))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "_CUT_SAFETY", safety)
            got = outcome(run_replication, spec, n, index)
        assert got == outcome(whole_sample_replication, spec, n, index)

    @pytest.mark.parametrize("design, message", [
        # V = 1 at n = 1e4 on the top of the sample: k = 1
        (dict(tail=Pareto(alpha=0.5), light=Zero(), truncation=TruncationScheme(A=1e300, delta=0.5),
              params=AdaptiveParams(beta=0.95, gamma=0.9)), "adaptive count k = 1 (V = 1, n = 10000)"),
        # about 18% exact zeros and k close to n: the whole sample is needed
        (dict(tail=Burr(tau=0.002, lam=1.0), light=Zero(),
              truncation=TruncationScheme(A=1e300, delta=1e-9),
              params=AdaptiveParams(beta=0.01, gamma=0.5)), ") = 0; log ratios are undefined"),
        # about 10 capped values with excesses up to 1e308 above M_n = 1e308
        (dict(tail=Pareto(alpha=0.01), light=Uniform(b=1e308),
              truncation=TruncationScheme(A=1e308, delta=1e-9),
              params=AdaptiveParams(beta=0.5, gamma=0.5)), "M_n + L overflows"),
    ])
    def test_failure_paths_keep_their_messages(self, design, message):
        n = 10**4
        spec = ExperimentSpec(n_list=(n,), replications=3, base_seed=1, **design)
        for index in range(3):
            got = outcome(run_replication, spec, n, index)
            assert got == outcome(whole_sample_replication, spec, n, index)
            assert message in (got[1] if isinstance(got, tuple) else got.error)

    def test_runs_on_the_top_at_the_study_designs(self):
        # STUDY and LIMIT at n = 1e5 need no fallback; a tiny cut always does
        with pytest.MonkeyPatch.context() as mp:
            fallbacks = CountingFallbacks(mp)
            for design in (VALID, LIMIT):
                run_experiment(make_spec(n_list=(10**5,), replications=10, **design))
            assert fallbacks.calls == 0
            mp.setattr(montecarlo, "_CUT_SAFETY", 1e-12)
            run_experiment(make_spec(n_list=(10**5,), replications=10))
            assert fallbacks.calls == 10

    @pytest.mark.parametrize("design, digest, qq_digest", [
        (VALID, "8bc40e737ed7f02daf1726f3c33f07b1163263c9bda576fb21d577d1bdf7dc0f",
         "327965ca53c4266291ecf547988bbb9495104aeee7f395e9f8e2f8a449b95bd8"),
        (LIMIT, "4666d85452b339f1842f1a62a8381f0004ba6750e681fc84e28550d4caf5f0dc",
         "8d9e2aa933de6f232e269ebd3ef802969b27ba8e602ac9d256595e194275c6f8"),
    ], ids=["study", "limit"])
    def test_seeded_outputs_are_pinned(self, design, digest, qq_digest):
        # replications and aggregate frozen while every replication still drew
        # the whole sample; the QQ file has its own digest, since its theoretical
        # column also carries the last bits of the normal quantile
        res = run_experiment(make_spec(n_list=(10**4, 10**5, 10**6), replications=4,
                                       base_seed=11, **design))
        text = replications_csv(res.replications) + aggregate_json(res.reports)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert hashlib.sha256(qq_csv(res).encode()).hexdigest() == qq_digest


class TestRunExperiment:
    def test_single_replication_reduces(self):
        spec = make_spec(replications=1)
        res = run_experiment(spec)
        assert res.replications == (run_replication(spec, 5000, 0),)
        rep = res.reports[5000]
        assert rep.count == 1
        assert rep.failures == 0
        assert rep.var_z == 0.0

    def test_thread_count_does_not_change_anything(self):
        spec = make_spec(replications=24)
        serial = run_experiment(spec, max_workers=1)
        threaded = run_experiment(spec, max_workers=6)
        assert serial.replications == threaded.replications
        assert serial.reports == threaded.reports
        assert replications_csv(serial.replications) == replications_csv(threaded.replications)
        assert aggregate_json(serial.reports) == aggregate_json(threaded.reports)
        assert qq_csv(serial) == qq_csv(threaded)

    def test_thread_count_is_capped_at_cores(self, monkeypatch):
        started = []

        class SerialPool:
            """Records the thread count asked for and maps in this thread."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        spec = make_spec(replications=40)
        serial = run_experiment(spec)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo, "_usable_cores", lambda: 3)
        pooled = run_experiment(spec, max_workers=10**6)
        two = run_experiment(spec, max_workers=2)
        assert started == [3, 2]
        assert pooled.replications == two.replications == serial.replications
        assert pooled.reports == serial.reports

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert montecarlo._usable_cores() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert montecarlo._usable_cores() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._usable_cores() == 1

    def test_all_failed_raises(self):
        spec = make_spec(n_list=(1,), replications=3)
        with pytest.raises(ExperimentError, match="all 3 replications failed"):
            run_experiment(spec)

    def test_report_invariants(self):
        spec = make_spec(replications=40)
        rep = run_experiment(spec).reports[5000]
        assert 0.0 <= rep.ks_distance <= 1.0
        assert 0.0 <= rep.coverage <= 1.0
        assert rep.count + rep.failures == 40

    def test_degradation_when_threshold_grows_too_slowly(self):
        # same (n, R): a spec outside the vanishing-rate window must standardize worse
        n, reps, base = 20000, 60, 21
        valid = run_experiment(make_spec(n_list=(n,), replications=reps, base_seed=base))
        invalid = run_experiment(
            make_spec(
                n_list=(n,),
                replications=reps,
                base_seed=base,
                truncation=TruncationScheme(A=1.0, delta=0.30),
            )
        )
        assert abs(invalid.reports[n].mean_z) > abs(valid.reports[n].mean_z)

    def test_null_z_values_pass_ks(self):
        # stratified uniforms mapped through the quantile: ks < 2/sqrt(R)
        rng = np.random.default_rng(17)
        m = 400
        zs = [normal_quantile((i - rng.random()) / m) for i in range(1, m + 1)]
        assert ks_distance(zs) < 2 / math.sqrt(m)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_list"):
            make_spec(n_list=())
        with pytest.raises(ValueError, match="repeat"):
            make_spec(n_list=(100, 100))
        with pytest.raises(ValueError, match="replications"):
            make_spec(replications=0)
        with pytest.raises(ValueError, match="level"):
            make_spec(level=1.2)
        with pytest.raises(ValueError, match="base_seed"):
            make_spec(base_seed=-3)
        with pytest.raises(ValueError, match="base_seed"):
            make_spec(base_seed=True)
        with pytest.raises(ValueError, match="n_list"):
            make_spec(n_list=[100.7])
        with pytest.raises(ValueError, match="replications"):
            make_spec(replications=True)

    def test_tail_index_with_overflowing_reciprocal_refused(self):
        # z = alpha*sqrt(k)*(h - 1/alpha) is centred at 1/alpha
        with pytest.raises(ValueError, match=re.escape("1/tail.alpha overflows: tail.alpha = 5e-324")):
            make_spec(tail=Pareto(alpha=5e-324))
        make_spec(tail=Pareto(alpha=1e-300))
        # a Burr tail index tau*lambda can itself underflow or overflow
        with pytest.raises(ValueError, match=re.escape("tail.alpha must be positive, got 0.0")):
            make_spec(tail=Burr(tau=1e-200, lam=1e-200))
        with pytest.raises(ValueError, match=re.escape("tail.alpha must be positive and finite, got inf")):
            make_spec(tail=Burr(tau=1e200, lam=1e200))

    def test_overflowing_z_fails_the_replication(self):
        # 1/alpha = 1e305 is finite, but z_plugin = sqrt(k)*(h - 1e305)/h is not
        spec = make_spec(tail=Pareto(alpha=1e-305), n_list=(200,), replications=1, base_seed=0,
                         truncation=TruncationScheme(A=1.0, delta=1.0))
        r = run_replication(spec, 200, 0)
        assert r.failed and r.z is None and r.z_plugin is None
        assert r.error.startswith("z or z_plugin overflows: alpha = 1e-305, h = ")
        assert replications_csv([r]) == "n,index,k_hat,h,z,z_plugin,covers,failed\n200,0,,,,,,true\n"

    def test_overflowing_z_moments_raise(self):
        # alpha = 1e300: the z values near 1e300 have no finite variance
        spec = make_spec(tail=Burr(tau=1.0, lam=1e300), n_list=(200,), replications=2, base_seed=0,
                         truncation=TruncationScheme(A=1.0, delta=1.0))
        with pytest.raises(ExperimentError, match="the mean or variance of z overflows for n = 200"):
            run_experiment(spec)

    def test_work_bound(self):
        # one replication walks n raw heavy words in one thread: n <= 2**44
        make_spec(n_list=(2**44,), replications=1000)
        with pytest.raises(ValueError, match=rf"n = {2**44 + 1} in n_list: .* {2**44 + 1} raw"):
            make_spec(n_list=(5, 2**44 + 1), replications=1)

    def test_replication_bound(self):
        # a record per replication: at most _MAX_REPLICATIONS over all of n_list,
        # refused before anything is built
        make_spec(n_list=(100,), replications=_MAX_REPLICATIONS)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"replications must be at most {_MAX_REPLICATIONS} for 1 "):
                make_spec(n_list=(100,), replications=_MAX_REPLICATIONS + 1)
            with pytest.raises(ValueError, match=rf"replications must be at most {_MAX_REPLICATIONS // 2} for 2 "):
                make_spec(n_list=(100, 200), replications=_MAX_REPLICATIONS // 2 + 1)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestSerialization:
    def test_replications_csv_shape(self):
        spec = make_spec(replications=3)
        res = run_experiment(spec)
        lines = replications_csv(res.replications).strip().split("\n")
        assert lines[0] == "n,index,k_hat,h,z,z_plugin,covers,failed"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "5000" and first[1] == "0"
        assert first[7] in ("true", "false")

    def test_failed_row_rendering(self):
        spec = make_spec(n_list=(1,), replications=1)
        r = run_replication(spec, 1, 0)
        line = replications_csv([r]).strip().split("\n")[1]
        assert line == "1,0,,,,,,true"

    def test_aggregate_json_schema(self):
        spec = make_spec(n_list=(3000, 5000), replications=4)
        res = run_experiment(spec)
        doc = json.loads(aggregate_json(res.reports))
        assert [rec["n"] for rec in doc] == [3000, 5000]
        assert set(doc[0]) == {"n", "count", "mean_z", "var_z", "ks", "coverage", "failures"}

    def test_report_dict_renames_only_ks(self):
        rep = run_experiment(make_spec(replications=4)).reports[5000]
        doc = rep.to_dict()
        assert list(doc) == ["n", "count", "mean_z", "var_z", "ks", "coverage", "failures"]
        assert doc["ks"] == rep.ks_distance and doc["mean_z"] == rep.mean_z

    def test_qq_points_and_csv(self):
        zs = [0.5, -1.0, 1.5, 0.0]
        pts = qq_points(zs)
        assert [e for _, e in pts] == sorted(zs)
        assert [t for t, _ in pts] == [normal_quantile((i - 0.5) / 4) for i in range(1, 5)]
        spec = make_spec(replications=4)
        res = run_experiment(spec)
        lines = qq_csv(res).strip().split("\n")
        assert lines[0] == "n,theoretical_quantile,empirical_quantile"
        assert len(lines) == 5


@pytest.mark.parametrize("call, message", [
    (lambda: make_spec(n_list=(0,)), "got 0"),
    # beyond numpy's largest array length, so rejected before any draw
    (lambda: make_spec(n_list=(100, 2**63)), f"got {2**63}"),
    (lambda: qq_points([]), "need at least one value"),
], ids=["n-0", "n-too-large", "qq-empty"])
def test_error_branches_name_the_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
