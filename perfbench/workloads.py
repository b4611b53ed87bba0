"""The benchmark's three workloads, each with its own reference checks.

Every workload uses the README study design: Burr(tau=1, lambda=2) heavy
tail, exponential excess with rate 1, threshold M_n = n**0.45, beta = 0.8,
gamma = 0.5, level = 0.95. The seed comes from the benchmark's argument.

A workload is built once (its set-up) and then runs passes. ``run_pass``
times one pass, then checks its outputs outside the timed region. The first
pass also checks them against straight-line recomputations written here,
so later passes only have to reproduce the first pass's outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trunctail import (
    AdaptiveParams,
    ExperimentSpec,
    TruncatedSampleSpec,
    c_statistic_trend,
    estimate,
    hill_curve,
    parse_light_model,
    parse_tail_model,
    parse_truncation,
    replication_seed,
    report_for_parameters,
    run_experiment,
    sample_c_statistic,
    sample_truncated,
)
from trunctail.cli import main as cli_main
from trunctail.estimator import SampleData
from trunctail.montecarlo import aggregate_json, qq_csv, replications_csv

from tracer import Tracer

TAIL, LIGHT, TRUNC = "burr:tau=1,lambda=2", "exp:rate=1", "A=1,delta=0.45"
ALPHA, RHO, BETA, GAMMA, DELTA, LEVEL = 2.0, -0.5, 0.8, 0.5, 0.45, 0.95
PARAMS = AdaptiveParams(beta=BETA, gamma=GAMMA)
STUDY_N = (10**4, 10**5, 10**6)

# hill_curve values come from prefix sums, whose rounding differs from the
# per-k mean; over at most 1e5 logs of magnitude below 20 the difference
# stays under 1e5 * 20 * 2**-52 ~ 5e-10, far inside this relative tolerance.
CURVE_RTOL = 1e-8


@dataclass(frozen=True)
class Sizes:
    replications: int  # per n in the study
    cli_n: int
    scan_n: int


FULL = Sizes(replications=6, cli_n=10**6, scan_n=10**6)
TINY = Sizes(replications=1, cli_n=20_000, scan_n=200_000)


def size_label(n: int) -> str | None:
    """'n1e4' for 10**4 and so on; None for sizes that are not a study size."""
    return f"n1e{round(math.log10(n))}" if n in STUDY_N else None


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    parts: dict[str, float] = field(default_factory=dict)  # named timings, s
    layer: dict[str, float] = field(default_factory=dict)  # per-layer figures
    traced: bool = False


def descending(values: np.ndarray) -> np.ndarray:
    return np.sort(values)[::-1]


def reference_k(values: np.ndarray, desc: np.ndarray) -> int:
    """Straight-line adaptive count floor(n (V/n)**beta), V above gamma*X_(1)."""
    n = values.size
    v = int(np.count_nonzero(values > GAMMA * desc[0]))
    return math.floor(n * (v / n) ** BETA)


def reference_h(desc: np.ndarray, k: int) -> float:
    """Mean log-spacing of the top k of a fully sorted sample."""
    return float(np.log(desc[:k] / desc[k - 1]).mean())


def reference_c_statistic(values: np.ndarray) -> float:
    n = values.size
    x1 = float(values.max())
    v = int(np.count_nonzero(values > GAMMA * x1))
    return float(n * (v / n) ** (2.0 - BETA) * math.log(x1) ** 2)


def _tail_spec(n: int, seed: int) -> TruncatedSampleSpec:
    return TruncatedSampleSpec(parse_tail_model(TAIL), parse_light_model(LIGHT),
                               parse_truncation(TRUNC), n, seed)


class Study:
    """run_experiment over n = 1e4, 1e5, 1e6, once serially and once on
    min(2, nproc) threads, then the three serializers."""

    name = "study"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.spec = ExperimentSpec(
            tail=parse_tail_model(TAIL), light=parse_light_model(LIGHT),
            truncation=parse_truncation(TRUNC), params=PARAMS, n_list=STUDY_N,
            replications=sizes.replications, base_seed=seed, level=LEVEL,
        )
        self.workers = min(2, nproc())
        self.first = None

    def run_pass(self, tr) -> PassResult:
        with tr.span("bench.pass"):
            t0 = time.perf_counter()
            serial = tr.call("montecarlo.run_experiment", run_experiment, self.spec)
            t1 = time.perf_counter()
            with tr.paused():
                threaded = tr.call("montecarlo.run_experiment_2t", run_experiment,
                                   self.spec, max_workers=self.workers)
            t2 = time.perf_counter()
            csv = tr.call("montecarlo.replications_csv", replications_csv, serial.replications)
            agg = tr.call("montecarlo.aggregate_json", aggregate_json, serial.reports)
            qq = tr.call("montecarlo.qq_csv", qq_csv, serial)
            t3 = time.perf_counter()

        reps = serial.replications
        res = PassResult(wall_s=t3 - t0, attempted=len(reps) + len(threaded.replications),
                         parts={"serial_s": t1 - t0, "two_thread_s": t2 - t1,
                                "serialize_s": t3 - t2})
        res.failed = sum(r.failed for r in reps) + sum(r.failed for r in threaded.replications)
        if replications_csv(threaded.replications) != csv:
            res.mismatches.append("2-thread replications_csv differs from the serial one")
        outputs = (reps, csv, agg, qq)
        if self.first is None:
            self.first = outputs
            res.mismatches += self._check_reference(reps)
        elif outputs != self.first:
            res.mismatches.append("study outputs differ from the first pass")

        ok = [r for r in reps if not r.failed]
        for n in STUDY_N:
            ks = [r.k_hat for r in ok if r.n == n]
            if ks:
                res.layer[f"estimator.k_hat.{size_label(n)}"] = float(np.median(ks))
        res.layer["estimator.used_fraction"] = (
            sum(r.k_hat for r in ok) / sum(r.n for r in ok) if ok else 0.0)
        res.layer["montecarlo.failed_replications"] = float(sum(r.failed for r in reps))
        res.layer["montecarlo.thread_speedup"] = (t1 - t0) / (t2 - t1)
        return res

    def figures(self, parts) -> dict[str, list[float]]:
        reps = self.spec.replications * len(STUDY_N)
        return {"replications_per_s": [reps / t for t in parts["serial_s"]],
                "replications_per_s_2t": [reps / t for t in parts["two_thread_s"]]}

    def _check_reference(self, reps) -> list[str]:
        bad = []
        spec = self.spec
        for r in reps:
            seed = replication_seed(spec.base_seed, r.n, r.index)
            values = sample_truncated(
                TruncatedSampleSpec(spec.tail, spec.light, spec.truncation, r.n, seed)).values
            desc = descending(values)
            k = reference_k(values, desc)
            h = reference_h(desc, k) if k >= 2 else None
            m = spec.truncation.threshold(r.n)
            u = int(np.count_nonzero(values > GAMMA * m))
            want = (h is None, None if h is None else k, h, u,
                    math.floor(r.n * (u / r.n) ** BETA))
            got = (r.failed, r.k_hat, r.h, r.u_count, r.tilde_k)
            if got != want:
                bad.append(f"replication n={r.n} index={r.index}: got {got}, reference {want}")
        return bad


class CliIO:
    """trunctail simulate, estimate and diagnose, one subprocess at a time.

    A traced pass also runs the same three commands in-process through
    ``trunctail.cli.main``, so the CLI's own formatting and parsing time can
    be separated from the library calls it makes."""

    name = "cli-io"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.n = seed, sizes.cli_n
        self.workdir = workdir
        self.sample_path = workdir / "sample.csv"
        src = Path(__file__).resolve().parent.parent / "src"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.argv = {
            "simulate": ["simulate", "--tail", TAIL, "--light", LIGHT, "--trunc", TRUNC,
                         "--n", str(self.n), "--seed", str(seed),
                         "--output", str(self.sample_path)],
            "estimate": ["estimate", "--input", str(self.sample_path), "--beta", str(BETA),
                         "--gamma", str(GAMMA), "--level", str(LEVEL)],
            "diagnose": ["diagnose", "--alpha", str(ALPHA), "--rho", str(RHO),
                         "--beta", str(BETA), "--delta", str(DELTA)],
        }
        self.first = None

    def _subprocess(self, args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=self.env, capture_output=True,
                              timeout=150, check=False)

    def run_pass(self, tr) -> PassResult:
        res = PassResult(wall_s=0.0, attempted=3)
        outputs = {}
        with tr.span("bench.pass"):
            for cmd, argv in self.argv.items():
                t = time.perf_counter()
                proc = tr.call(f"cli.{cmd}_subprocess", self._subprocess,
                               ["-m", "trunctail", *argv])
                res.parts[f"{cmd}_s"] = time.perf_counter() - t
                outputs[cmd] = proc.stdout
                if proc.returncode != 0:
                    res.failed += 1
                    res.mismatches.append(f"{cmd} exited {proc.returncode}: "
                                          f"{proc.stderr.decode(errors='replace').strip()}")
        res.wall_s = sum(res.parts.values())

        sample_bytes = self.sample_path.read_bytes()
        outputs["file"] = sample_bytes
        if self.first is None:
            self.first = outputs
            res.mismatches += self._check_reference(sample_bytes, outputs)
        elif outputs != self.first:
            res.mismatches.append("CLI outputs differ from the first pass")
        doc = _json(outputs["estimate"])
        if isinstance(doc, dict) and "k_hat" in doc:
            if size_label(self.n):
                res.layer[f"estimator.k_hat.{size_label(self.n)}"] = float(doc["k_hat"])
            res.layer["estimator.used_fraction"] = doc["k_hat"] / self.n
        res.layer["cli.bytes_written"] = float(len(sample_bytes))
        res.layer["cli.bytes_read"] = float(self.sample_path.stat().st_size)

        if isinstance(tr, Tracer):
            res.attempted += 4
            res.mismatches += self._in_process(tr, res)
        return res

    def figures(self, parts) -> dict[str, list[float]]:
        return {f"{cmd}_s": parts[f"{cmd}_s"] for cmd in self.argv}

    def _in_process(self, tr, res: PassResult) -> list[str]:
        """Same commands through cli.main, writing to a second file; their
        outputs must equal the subprocesses' outputs."""
        t = time.perf_counter()
        proc = tr.call("cli.process_start", self._subprocess, ["-c", "import trunctail.cli"])
        res.layer["cli.process_start_s"] = time.perf_counter() - t
        bad = [] if proc.returncode == 0 else ["import trunctail.cli failed in a subprocess"]
        path = self.workdir / "sample_in_process.csv"
        swap = {str(self.sample_path): str(path)}
        for cmd, argv in self.argv.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tr.call(f"cli.main.{cmd}", cli_main, [swap.get(a, a) for a in argv])
            if code != 0 or buf.getvalue().encode() != self.first[cmd]:
                bad.append(f"in-process {cmd} (exit {code}) differs from the subprocess")
        if path.read_bytes() != self.first["file"]:
            bad.append("in-process simulate wrote a different file")
        return bad

    def _check_reference(self, sample_bytes: bytes, outputs) -> list[str]:
        bad = []
        values = sample_truncated(_tail_spec(self.n, self.seed)).values
        lines = sample_bytes.decode().split("\n")
        if lines[0] != "x" or lines[-1] != "":
            bad.append("simulate output lacks the 'x' header or the final newline")
        parsed = np.array([float(s) for s in lines[1:-1]])
        if not np.array_equal(parsed, values):
            bad.append("simulate output does not parse back to sample_truncated(spec).values")
        sample = SampleData(values)
        want = estimate(sample, PARAMS, level=LEVEL).to_dict()
        want["c_statistic"] = sample_c_statistic(sample, PARAMS)
        if _json(outputs["estimate"]) != want:
            bad.append("estimate JSON differs from the in-process estimate")
        report = report_for_parameters(ALPHA, RHO, BETA, DELTA).to_dict()
        if _json(outputs["diagnose"]) != json.loads(json.dumps(report)):
            bad.append("diagnose JSON differs from report_for_parameters")
        return bad


def _json(raw: bytes):
    try:
        return json.loads(raw)
    except ValueError:
        return None


def _curve_points(curve) -> list:
    """hill_curve's (k, h) pairs, whether it returns a list of pairs or the
    two arrays (ks, hs) that ROADMAP item 4 proposes."""
    if len(curve) == 2 and len(curve[0]) == len(curve[1]) > 2:
        return list(zip(*curve))
    return list(curve)


class TailScan:
    """One fixed sample (built in set-up); each pass re-sorts it and scans
    the tail: estimates at the adaptive k and at forced large k, hill_curve
    up to k = 1e5 and the diagnostic statistic and its prefix trend."""

    name = "tail-scan"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.values = sample_truncated(_tail_spec(sizes.scan_n, seed)).values
        n = self.values.size
        self.forced_k = (100, 1000, 10_000, 100_000, n // 2)
        self.k_max = min(100_000, n)
        self.reference = None

    def run_pass(self, tr) -> PassResult:
        with tr.span("bench.pass"):
            t0 = time.perf_counter()
            sample = tr.call("estimator.SampleData", SampleData, self.values)
            ests = [tr.call("estimator.estimate", estimate, sample, PARAMS, LEVEL)]
            ests += [tr.call("estimator.estimate", estimate, sample, PARAMS, LEVEL, k)
                     for k in self.forced_k]
            curve = tr.call("estimator.hill_curve", hill_curve, sample, 2, self.k_max)
            c = tr.call("diagnostics.sample_c_statistic", sample_c_statistic, sample, PARAMS)
            trend = tr.call("diagnostics.c_statistic_trend", c_statistic_trend, sample, PARAMS)
            wall = time.perf_counter() - t0

        res = PassResult(wall_s=wall, attempted=10, parts={"scan_s": wall})
        if self.reference is None:
            self.reference = self._reference()
        ref = self.reference
        got_h = tuple((e.k_hat, e.h) for e in ests)
        if got_h != ref["h"]:
            res.mismatches.append(f"(k, h) {got_h} differ from the reference {ref['h']}")
        points = _curve_points(curve)
        if len(points) != self.k_max - 1:
            res.mismatches.append(f"hill_curve has {len(points)} points")
        else:
            for k, h in ref["curve"]:
                ck, ch = points[k - 2]
                if ck != k or not math.isclose(ch, h, rel_tol=CURVE_RTOL):
                    res.mismatches.append(f"hill_curve at k={k}: ({ck}, {ch}) vs reference {h}")
        if c != ref["c"] or (trend.sizes, trend.values, trend.label) != ref["trend"]:
            res.mismatches.append("diagnostic statistic or its trend differ from the reference")

        n = self.values.size
        label = size_label(n)
        if label:
            res.layer[f"estimator.k_hat.{label}"] = float(ests[0].k_hat)
        res.layer["estimator.used_fraction"] = ests[0].k_hat / n
        return res

    def figures(self, parts) -> dict[str, list[float]]:
        return {"scan_s": parts["scan_s"]}

    def _reference(self) -> dict:
        x = self.values
        desc = descending(x)
        ks = (reference_k(x, desc),) + self.forced_k
        curve = [(k, reference_h(desc, k)) for k in sorted({2, 100, 1000, self.k_max})]
        sizes = tuple(sorted({x.size // 4, x.size // 2, x.size}))
        values = tuple(reference_c_statistic(x[:m]) for m in sizes)
        falling = all(b < a for a, b in zip(values, values[1:]))
        return {
            "h": tuple((k, reference_h(desc, k)) for k in ks),
            "curve": curve,
            "c": reference_c_statistic(x),
            "trend": (sizes, values, "decreasing" if falling else "not decreasing"),
        }


WORKLOADS = {w.name: w for w in (Study, CliIO, TailScan)}
