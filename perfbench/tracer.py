"""In-memory span tracer for the benchmark's traced runs.

A span records a name, start and end (``time.perf_counter`` seconds), the
span that caused it, a replication id and the pass it belongs to. Spans
stay in a list and are written out once, when the run ends.

Spans come from two places, both in the benchmark's own files:

* ``Tracer.call`` and ``Tracer.span`` around each call the benchmark makes
  into a layer;
* ``instrumented``, which, for the duration of a traced pass, rebinds the
  names through which the package's modules call each other's public
  functions, so the calls made inside one replication get spans too.

A layer's self time is its span's duration minus its child spans. Children
always run on their parent's thread: inner spans are not recorded while the
package fans work out to its own thread pool (``Tracer.paused``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rep: str | None
    pass_no: int | None
    n: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Untraced runs: every call goes straight through."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, rep=None, n=None):
        yield

    @contextmanager
    def paused(self):
        yield


class Tracer:
    def __init__(self, label: str):
        self.label = label
        self.spans: list[Span] = []
        self.pass_no: int | None = None
        self.inner = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rep: str | None = None, n: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if rep is None and parent is not None:
            rep = parent.rep
        span = Span(next(self._ids), name, 0.0, 0.0,
                    parent.id if parent else None, rep, self.pass_no, n)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def paused(self):
        """Record no inner spans, e.g. while the package runs a thread pool."""
        self.inner = False
        try:
            yield
        finally:
            self.inner = True

    def write(self, path) -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({"trace": self.label, **asdict(span)}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def _wrap(tracer: Tracer, name: str, fn, n_of=None, rep_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.inner:
            return fn(*args, **kwargs)
        with tracer.span(name,
                         rep=rep_of(args) if rep_of else None,
                         n=n_of(args) if n_of else None):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind the package's internal call sites to traced wrappers, and
    restore the originals on exit. Only names the modules look up at call
    time are rebound; ``src/`` itself is not changed."""
    from trunctail import cli, diagnostics, distributions, estimator, montecarlo

    n_arg1 = lambda a: int(a[1])  # noqa: E731
    n_arg2 = lambda a: int(a[2])  # noqa: E731
    targets = [
        (distributions, "sample_tail", "distributions.sample_tail", n_arg1, None),
        (distributions, "SampleData", "estimator.SampleData", None, None),
        (estimator, "v_count", "estimator.v_count", None, None),
        (diagnostics, "v_count", "estimator.v_count", None, None),
        (diagnostics, "SampleData", "estimator.SampleData", None, None),
        (diagnostics, "sample_c_statistic", "diagnostics.sample_c_statistic", None, None),
        (montecarlo, "replication_seed", "montecarlo.replication_seed", None, None),
        (montecarlo, "run_replication", "montecarlo.run_replication", n_arg1,
         lambda a: f"{a[1]}:{a[2]}"),
        (montecarlo, "sample_truncated", "distributions.sample_truncated", None, None),
        (montecarlo, "u_count", "estimator.u_count", None, None),
        (montecarlo, "estimate", "estimator.estimate", None, None),
        (montecarlo, "ks_distance", "normal.ks_distance", None, None),
        (montecarlo, "qq_points", "normal.qq_points", None, None),
        (cli, "sample_truncated", "distributions.sample_truncated", None, None),
        (cli, "SampleData", "estimator.SampleData", None, None),
        (cli, "estimate", "estimator.estimate", None, None),
        (cli, "sample_c_statistic", "diagnostics.sample_c_statistic", None, None),
        (cli, "report_for_parameters", "diagnostics.report_for_parameters", None, None),
    ]
    # light excesses are drawn through a method of the light model's class
    for light in (distributions.Zero, distributions.Exponential, distributions.Uniform):
        targets.append((light, "sample", "distributions.light_sample", n_arg2, None))

    saved = []
    try:
        for owner, attr, name, n_of, rep_of in targets:
            original = getattr(owner, attr, None)
            if original is None:  # renamed or removed: its metrics go missing
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, n_of, rep_of))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
