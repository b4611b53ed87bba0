"""trunctail benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. With ``--trace 0`` the last line
of stdout holds the end-to-end metrics, with ``--trace 1`` the per-layer
metrics; the line before it is a detail record with every workload-named
figure, its sample count, the reference-check outcome and machine facts.
README.md in this directory defines each metric and the predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

from tracer import NullTracer, Tracer, instrumented, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_REPEATS = 7
MIN_PASSES = 3
WARMUP_PASSES = {"study": 2, "cli-io": 1, "tail-scan": 2}

# Per-layer self times, in ms per pass: metric -> span names summed.
SELF_MS = {
    "distributions.sample_tail_ms": ("distributions.sample_tail",),
    "distributions.light_sample_ms": ("distributions.light_sample",),
    "distributions.threshold_self_ms": ("distributions.sample_truncated",),
    "estimator.sample_data_ms": ("estimator.SampleData",),
    "estimator.estimate_ms": ("estimator.estimate",),
    "estimator.v_count_ms": ("estimator.v_count",),
    "estimator.u_count_ms": ("estimator.u_count",),
    "estimator.hill_curve_ms": ("estimator.hill_curve",),
    "diagnostics.sample_c_statistic_ms": ("diagnostics.sample_c_statistic",),
    "diagnostics.c_statistic_trend_ms": ("diagnostics.c_statistic_trend",),
    "diagnostics.report_ms": ("diagnostics.report_for_parameters",),
    "montecarlo.replication_seed_ms": ("montecarlo.replication_seed",),
    "montecarlo.aggregate_self_ms": ("montecarlo.run_experiment",),
    "montecarlo.serialize_ms": ("montecarlo.replications_csv", "montecarlo.aggregate_json",
                                "montecarlo.qq_csv"),
    "normal.ks_distance_ms": ("normal.ks_distance",),
    "normal.qq_points_ms": ("normal.qq_points",),
    "cli.format_self_ms": ("cli.main.simulate",),
    "cli.parse_self_ms": ("cli.main.estimate",),
}


def _summary(xs) -> dict:
    q = quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"median": median(xs), "q1": q[0], "q3": q[2], "samples": len(xs)}


def setup_seconds(workload: str, seed: int, tiny: bool, workdir: Path) -> float:
    """Import plus input construction, timed inside a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
        "import workloads\n"
        f"workloads.WORKLOADS[{workload!r}]({seed}, workloads.{'TINY' if tiny else 'FULL'},"
        f" __import__('pathlib').Path({str(workdir)!r}))\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Passes of one run: timings plus the attempted/failed/mismatch totals."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def add(self, res):
        self.attempted += res.attempted
        self.failed += res.failed + len(res.mismatches)
        self.mismatches += res.mismatches
        return res


def _attempt(tally, run):
    """One pass; a raising program counts as a failed pass, not a crash."""
    try:
        return tally.add(run())
    except Exception as exc:
        traceback.print_exc()
        tally.attempted += 1
        tally.failed += 1
        tally.mismatches.append(f"pass raised {exc!r}")
        return None


def run_passes(wl, tally, seconds, run_one, between=lambda elapsed: None):
    """Warm up, then run passes until ``seconds`` have elapsed (at least
    MIN_PASSES). ``run_one(i)`` runs measured pass i; ``between`` gets the
    elapsed share of the run after each pass."""
    for _ in range(WARMUP_PASSES[wl.name]):
        _attempt(tally, lambda: wl.run_pass(NullTracer()))
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        res = _attempt(tally, lambda: run_one(len(passes)))
        if res is not None:
            passes.append(res)
        elif time.perf_counter() - start >= seconds:
            break
        between((time.perf_counter() - start) / seconds)
    if len(passes) < 2:
        raise SystemExit("error: fewer than two measured passes completed")
    return passes


def traced_pass(tracer, wl, pass_no):
    tracer.pass_no = pass_no
    with instrumented(tracer):
        res = wl.run_pass(tracer)
    res.traced = True
    return res


def layer_metrics(tracer, results) -> dict[str, float]:
    """Per-layer figures of one tracer's passes. A metric is left out when
    none of the passes reached its layer."""
    spans = tracer.spans
    own = self_times(spans)
    per_pass = defaultdict(lambda: defaultdict(float))
    draws = defaultdict(int)
    rep_ms = defaultdict(list)
    unaccounted = []
    for s in spans:
        per_pass[s.pass_no][s.name] += own[s.id]
        if s.name in ("distributions.sample_tail", "distributions.light_sample"):
            draws[s.pass_no] += s.n
        elif s.name == "montecarlo.run_replication":
            rep_ms[s.n].append(1000 * s.duration)
        elif s.name == "bench.pass":
            unaccounted.append(own[s.id] / s.duration)
    out = {}
    for metric, names in SELF_MS.items():
        vals = [1000 * sum(p.get(name, 0.0) for name in names)
                for p in per_pass.values() if any(name in p for name in names)]
        if vals:
            out[metric] = median(vals)
    if draws:
        out["distributions.draws"] = median(list(draws.values()))
    from workloads import size_label

    for n, ms in rep_ms.items():
        out[f"montecarlo.run_replication_ms.{size_label(n)}"] = median(ms)
    per_layer = defaultdict(list)
    for res in results:
        for name, value in res.layer.items():
            per_layer[name].append(value)
    for name, values in per_layer.items():
        out.setdefault(name, median(values))
    if unaccounted:
        out["trace.unaccounted_share"] = median(unaccounted)
    return out


def machine_facts(seed: int, sizes) -> dict:
    import numpy

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10).stdout.strip()
            return int(out) if out.isdigit() else None
        except OSError:
            return None

    from workloads import STUDY_N, nproc

    largest = max(*STUDY_N, sizes.cli_n, sizes.scan_n)
    l3 = getconf("LEVEL3_CACHE_SIZE")
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": l3,
        "seed": seed,
        "bytes_per_sort": {str(n): 8 * n for n in sorted({*STUDY_N, sizes.cli_n, sizes.scan_n})},
        "bandwidth_note": (
            f"the largest sorted array is {8 * largest} bytes of float64"
            + (f", within the {l3}-byte shared L3" if l3 and 8 * largest <= l3 else "")
            + "; no memory-bandwidth figure is claimed"),
    }


def workload_figures(wl, results, tally) -> dict:
    """The figures the workload's users see, by workload-prefixed name."""
    parts = defaultdict(list)
    for res in results:
        for key, value in res.parts.items():
            parts[key].append(value)
    fig = {f"{wl.name}.{name}": _summary(values) for name, values in wl.figures(parts).items()}
    fig[f"{wl.name}.failed_fraction"] = tally.failed / tally.attempted
    return fig


def untraced_run(wl, args, workdir, tally, detail):
    """End-to-end metrics: median pass time and median set-up time."""
    # set-up samples are spread over the run, so they see the same machine
    # as the passes do
    setup = []

    def probe_setup(elapsed):
        while len(setup) < min(SETUP_REPEATS, 1 + int(elapsed * SETUP_REPEATS)):
            setup.append(setup_seconds(args.workload, args.seed, args.tiny, workdir))

    results = run_passes(wl, tally, args.seconds, lambda i: wl.run_pass(NullTracer()),
                         probe_setup)
    probe_setup(1.0)
    walls = [r.wall_s for r in results]
    detail["setup_s"] = _summary(setup)
    detail["pass_s"] = _summary(walls)
    return results, {"setup_s": median(setup), "pass_s": median(walls)}


def traced_run(wl, args, sizes, workdir, tally, detail, units):
    """Per-layer metrics from alternating untraced and traced passes; the
    gap between the two is the tracing overhead."""
    import workloads

    tracer = Tracer(args.workload)
    passes = run_passes(
        wl, tally, args.seconds,
        lambda i: traced_pass(tracer, wl, i) if i % 2 else wl.run_pass(NullTracer()))
    results = [r for r in passes if not r.traced]
    traced_s = [r.wall_s for r in passes if r.traced]
    layer = layer_metrics(tracer, [r for r in passes if r.traced])
    layer["trace.overhead_share"] = (
        median(traced_s) / median([r.wall_s for r in results]) - 1.0)
    tracers = [tracer]
    # layers this workload never reaches: one traced pass of each other
    # workload that does, after one untraced warm-up pass
    for other in workloads.WORKLOADS.values():
        if other.name == args.workload or set(units) <= set(layer):
            continue
        owl = other(args.seed, sizes, workdir)
        sub = Tracer(other.name)
        _attempt(tally, lambda: owl.run_pass(NullTracer()))
        res = _attempt(tally, lambda: traced_pass(sub, owl, 0))
        if res is None:
            continue
        for name, value in layer_metrics(sub, [res]).items():
            layer.setdefault(name, value)
        tracers.append(sub)

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    for tr in tracers:
        tr.write(spans_path)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    detail["layer_sources"] = [tr.label for tr in tracers]
    detail["pass_s_untraced"] = _summary([r.wall_s for r in results])
    detail["pass_s_traced"] = _summary(traced_s)
    missing = sorted(set(units) - set(layer))
    if missing:
        tally.mismatches.append(f"per-layer metrics not measured: {missing}")
    return results, {name: layer[name] for name in units if name in layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("study", "cli-io", "tail-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes and one replication per n, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "trunctail" / "__init__.py").is_file():
        print(f"error: no trunctail package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        tally = Tally()
        wl = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "facts": machine_facts(args.seed, sizes)}

        if args.trace:
            results, metrics = traced_run(wl, args, sizes, workdir, tally, detail, units)
        else:
            results, metrics = untraced_run(wl, args, workdir, tally, detail)
        detail.update(workload_figures(wl, results, tally))
        detail["mismatches"] = tally.mismatches
        print(json.dumps(detail))
        print(json.dumps({
            "correct": not tally.mismatches,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
