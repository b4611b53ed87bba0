"""Command line front end: estimate from a data file, run validity
diagnostics, simulate truncated samples, and run replication experiments.

Exit codes: 0 success, 2 usage/validation, 3 insufficient tail data,
4 experiment-wide failure.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .diagnostics import report_for_parameters, sample_c_statistic
from .distributions import (
    TruncatedSampleSpec,
    parse_light_model,
    parse_tail_model,
    parse_truncation,
    sample_truncated,
)
from .estimator import (
    AdaptiveParams,
    DegenerateSampleError,
    InsufficientTailDataError,
    SampleData,
    _LEVEL,
    estimate,
)
from .montecarlo import (
    ExperimentError,
    ExperimentSpec,
    _usable_cores,
    aggregate_json,
    qq_csv,
    replications_csv,
    run_experiment,
)

SEED_ENV_VAR = "TRUNCTAIL_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSUFFICIENT_TAIL = 3
EXIT_EXPERIMENT_FAILED = 4

# Values per chunk of `simulate`'s text: about 1.3 MB
_WRITE_CHUNK = 2**16
# Bytes per piece of `estimate`'s file: about 100,000 lines
_READ_PIECE = 2**21


def _read_sample_file(path: str) -> np.ndarray:
    """One nonnegative decimal per line; optional 'x' header; blanks ignored.

    Each piece that _cut_lines makes goes through one numpy conversion, on
    every usable core when there are two or more pieces. The conversion
    parses each line as float() parses bytes: ASCII only, with ASCII
    whitespace around the number. The line loop also breaks lines at
    vertical tabs and form feeds, which here can only sit in that whitespace,
    so it reads the same values. A file that does not convert cleanly is read
    again by the line loop, which raises the line-numbered error or reads the
    blank lines it allows."""
    try:
        pieces = _cut_lines(Path(path).read_bytes())
    except OSError:
        pieces = []
    if pieces:
        parts: list[np.ndarray] = []
        try:
            _map_chunks(_parse_chunk, pieces, parts.append)
        except ValueError:
            pass
        else:
            values = np.concatenate(parts)
            if np.isfinite(values).all() and not (values < 0.0).any():
                return values
    return np.array(_read_sample_lines(path))


def _cut_lines(data: bytes) -> list[bytes]:
    """The bytes after the first line if it is an 'x' header, cut just after
    a line feed every _READ_PIECE bytes or so. A line feed always ends a line,
    so the pieces' lines are the file's lines. The header test strips only
    spaces and tabs, the whitespace bytes.splitlines leaves inside a line. A
    file with a NUL byte gives no pieces, since numpy's fixed-width strings
    drop trailing NULs."""
    if b"\0" in data:
        return []
    first = data[:data.find(b"\n") + 1 or None].splitlines(keepends=True)[:1]
    start = len(first[0]) if first and first[0].rstrip(b"\r\n").strip(b" \t").lower() == b"x" else 0
    pieces = []
    while start < len(data):
        end = data.find(b"\n", start + _READ_PIECE) + 1 or len(data)
        pieces.append(data[start:end])
        start = end
    return pieces


def _parse_chunk(piece: bytes) -> np.ndarray:
    return np.array(piece.splitlines(), dtype=float)


def _read_sample_lines(path: str) -> list[float]:
    """The line-by-line reader: the reference for _read_sample_file's
    conversion of pieces and the source of every reader error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    values: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s:
            continue
        if lineno == 1 and s.lower() == "x":
            continue
        try:
            v = float(s)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not a number: {s!r}") from None
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(
                f"{path}: line {lineno}: values must be finite and nonnegative, got {s}"
            )
        values.append(v)
    if not values:
        raise ValueError(f"{path}: no data values")
    return values


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _cmd_estimate(args: argparse.Namespace) -> int:
    sample = SampleData(_read_sample_file(args.input))
    params = AdaptiveParams(beta=args.beta, gamma=args.gamma)
    est = estimate(sample, params, level=args.level, k=args.k)
    doc = est.to_dict()
    doc["c_statistic"] = sample_c_statistic(sample, params)
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_diagnose(args: argparse.Namespace) -> int:
    report = report_for_parameters(args.alpha, args.rho, args.beta, args.delta)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    tail = parse_tail_model(args.tail)
    light = parse_light_model(args.light)
    trunc = parse_truncation(args.trunc)
    seed = args.seed if args.seed is not None else _env_seed()
    spec = TruncatedSampleSpec(tail, light, trunc, args.n, seed)
    sample = sample_truncated(spec)
    try:
        with Path(args.output).open("w") if args.output else contextlib.nullcontext(sys.stdout) as out:
            _write_sample(out, sample.values)
            out.flush()
    except BrokenPipeError:
        # The reader stopped early (`trunctail simulate ... | head`, or an
        # --output naming a pipe or FIFO), which is not an error. Point stdout
        # at devnull so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


def _write_sample(out, values: np.ndarray) -> None:
    """The 'x' header, then repr of each value on its own line. The values are
    formatted _WRITE_CHUNK at a time, on every usable core when there is more
    than one chunk, and written in order as each chunk's text is ready, so
    the text is never held whole."""
    out.write("x\n")
    chunks = [values[i:i + _WRITE_CHUNK] for i in range(0, values.size, _WRITE_CHUNK)]
    _map_chunks(_format_chunk, chunks, out.write)


def _format_chunk(chunk: np.ndarray) -> str:
    return "\n".join(map(repr, chunk.tolist())) + "\n"


def _map_chunks(func, chunks: list, sink) -> None:
    """sink(func(chunk)) for each chunk, in order. With two or more chunks
    and usable cores, and 'fork' available, func runs in a pool of forked
    processes, one per usable core, with at most two chunks per worker in
    flight; otherwise it runs here. If sink or func raises, the chunks not
    yet started are cancelled and the workers joined before the exception
    goes on. A worker that dies raises ChildProcessError, which main reports
    as an OSError. The pool modules are imported only on the pool path."""
    workers = min(len(chunks), _usable_cores())
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
        for chunk in chunks:
            sink(func(chunk))
        return
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # a forked worker flushes the standard streams as it exits, so anything
    # they hold now would be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker)
    try:
        pending = collections.deque()
        for chunk in chunks:
            if len(pending) == 2 * workers:
                sink(pending.popleft().result())
            pending.append(pool.submit(func, chunk))
        while pending:
            sink(pending.popleft().result())
    except BrokenProcessPool as exc:
        raise ChildProcessError(str(exc)) from None
    finally:
        pool.shutdown(cancel_futures=True)


def _start_worker() -> None:
    """Leave Ctrl-C to the parent, which cancels the chunks and joins the
    workers, and end the worker when the parent ends: a killed parent
    cannot join it, and it would wait for chunks forever."""
    import multiprocessing
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with, args=(multiprocessing.parent_process(),), daemon=True).start()


def _exit_with(parent) -> None:
    parent.join()
    os._exit(1)


# Each JSON spec field, its converter, and whether it is required; an absent
# optional field keeps the library's default. Integer fields pass through as
# parsed, since ExperimentSpec rejects floats and bools.
_SPEC_FIELDS = {
    "tail": (lambda v: parse_tail_model(str(v)), True),
    "light": (lambda v: parse_light_model(str(v)), True),
    "trunc": (lambda v: parse_truncation(str(v)), True),
    "beta": (float, False),
    "gamma": (float, False),
    "level": (float, False),
    "n_list": (lambda v: v, True),
    "replications": (lambda v: v, True),
    "base_seed": (lambda v: v, True),
}


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict, refused if a key repeats, where
    json.loads alone would keep the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"duplicate field '{key}'")
        doc[key] = value
    return doc


def _load_experiment_spec(path: str) -> ExperimentSpec:
    try:
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
        if not isinstance(doc, dict):
            raise ValueError("top level must be a JSON object")
        unknown = set(doc) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(sorted(unknown))}")
        kw = {}
        for name, (convert, required) in _SPEC_FIELDS.items():
            if name in doc:
                try:
                    kw[name] = convert(doc[name])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"field '{name}': {exc}") from None
            elif required:
                raise ValueError(f"missing field '{name}'")
        params = AdaptiveParams(**{p: kw.pop(p) for p in ("beta", "gamma") if p in kw})
        return ExperimentSpec(truncation=kw.pop("trunc"), params=params, **kw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    spec = _load_experiment_spec(args.spec)
    result = run_experiment(spec, max_workers=args.threads)
    agg = aggregate_json(result.reports)
    if args.out:
        Path(f"{args.out}_replications.csv").write_text(replications_csv(result.replications))
        Path(f"{args.out}_aggregate.json").write_text(agg)
        Path(f"{args.out}_qq.csv").write_text(qq_csv(result))
    sys.stdout.write(agg)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunctail",
        description="Tail-index estimation for truncated heavy-tailed samples.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_est = sub.add_parser("estimate", help="estimate 1/alpha from a data file")
    p_est.add_argument("--input", required=True, help="file with one value per line (optional 'x' header)")
    p_est.add_argument("--beta", type=float, default=AdaptiveParams.beta, help="adaptive count exponent in (0,1)")
    p_est.add_argument("--gamma", type=float, default=AdaptiveParams.gamma, help="threshold fraction in (0,1)")
    p_est.add_argument("--level", type=float, default=_LEVEL, help="confidence level in (0,1)")
    p_est.add_argument("--k", type=int, default=None, help="force a classical fixed k instead of the adaptive count")
    p_est.set_defaults(func=_cmd_estimate)

    p_diag = sub.add_parser("diagnose", help="check the exponent validity windows")
    p_diag.add_argument("--alpha", type=float, required=True, help="tail index > 0")
    p_diag.add_argument("--rho", type=float, default=None,
                        help="second-order exponent < 0 (omit for an exact-Pareto tail)")
    p_diag.add_argument("--beta", type=float, required=True, help="adaptive count exponent in (0,1)")
    p_diag.add_argument("--delta", type=float, required=True, help="threshold growth exponent > 0")
    p_diag.set_defaults(func=_cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="write a truncated sample as CSV")
    p_sim.add_argument("--tail", required=True, help="e.g. pareto:alpha=2,xmin=1 or burr:tau=1,lambda=2")
    p_sim.add_argument("--light", required=True, help="zero, exp:rate=1 or uniform:b=1")
    p_sim.add_argument("--trunc", required=True, help="e.g. A=1,delta=0.8")
    p_sim.add_argument("--n", type=int, required=True, help="sample size >= 1")
    p_sim.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or 0)")
    p_sim.add_argument("--output", default=None, help="output file (default: stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_exp = sub.add_parser("experiment", help="run a replication study from a JSON spec file")
    p_exp.add_argument("--spec", required=True, help="JSON file with tail/light/trunc/n_list/replications/base_seed")
    p_exp.add_argument("--out", default=None, help="prefix for _replications.csv, _aggregate.json and _qq.csv")
    p_exp.add_argument("--threads", type=int, default=1, help="worker threads (result is identical for any count)")
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InsufficientTailDataError, DegenerateSampleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_TAIL
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy's message gives the shape it could not allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
