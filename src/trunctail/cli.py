"""Command line front end: estimate from a data file, run validity
diagnostics, simulate truncated samples, and run replication experiments.

Exit codes: 0 success, 2 usage/validation, 3 insufficient tail data,
4 experiment-wide failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
from pathlib import Path

from ._params import (
    _LEVEL,
    AdaptiveParams,
    DegenerateSampleError,
    ExperimentError,
    InsufficientTailDataError,
    report_for_parameters,
)

# The names that the numpy commands call, by module. A command binds its
# modules' names into this module's globals (_bind) before it runs, so that
# `trunctail diagnose`, which needs none, imports no numpy. A name already
# bound, by an earlier command or by a caller that rebinds it, is kept.
_NUMPY_NAMES = {
    "diagnostics": ("sample_c_statistic",),
    "distributions": ("TruncatedSampleSpec", "parse_light_model", "parse_tail_model",
                      "parse_truncation", "sample_truncated"),
    "estimator": ("SampleData", "_TailTooShort", "estimate"),
    "montecarlo": ("ExperimentSpec", "aggregate_json", "qq_csv", "replications_csv",
                   "run_experiment"),
}


def _bind(*modules: str) -> None:
    for module in modules:
        found = vars(importlib.import_module(f".{module}", __package__))
        for name in _NUMPY_NAMES[module]:
            globals().setdefault(name, found[name])


def __getattr__(name: str):
    """A numpy command's name, bound on first access (PEP 562). Every other
    name is missing as usual, so that a probe such as the import system's
    hasattr(cli, "__path__") imports nothing."""
    for module, names in _NUMPY_NAMES.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


SEED_ENV_VAR = "TRUNCTAIL_SEED"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INSUFFICIENT_TAIL = 3
EXIT_EXPERIMENT_FAILED = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a command Ctrl-C ended


def _sample_tops(path: str, k: int | None):
    """Samples of estimate's file, each holding more of its top than the
    last, for estimate to try in turn until one holds what it reads: those
    of _samplefile._top_samples, then the whole sample from
    _samplefile._read_sample_file, which gives its values or its
    line-numbered error. It builds the whole sample through this module's
    SampleData, a name that callers such as perfbench's tracer rebind."""
    from . import _samplefile

    try:
        data = Path(path).read_bytes()
    except OSError:
        data = b""
    yield from _samplefile._top_samples(data, k)
    # as the full reader alone does, free the bytes once cut and the pieces
    # once read, before SampleData copies the values
    pieces = _samplefile._cut_lines(data)
    del data
    values = _samplefile._read_sample_file(path, pieces)
    del pieces
    yield SampleData(values)


def _env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _cmd_estimate(args: argparse.Namespace) -> int:
    _bind("estimator", "diagnostics")
    for sample in _sample_tops(args.input, args.k):
        # checked once the file is read, so that its errors come first
        params = AdaptiveParams(beta=args.beta, gamma=args.gamma)
        with contextlib.suppress(_TailTooShort):
            est = estimate(sample, params, level=args.level, k=args.k)
            c_statistic = sample_c_statistic(sample, params)
            break
    doc = est.to_dict()
    doc["c_statistic"] = c_statistic
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_diagnose(args: argparse.Namespace) -> int:
    report = report_for_parameters(args.alpha, args.rho, args.beta, args.delta)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import _samplefile

    _bind("distributions")
    tail = parse_tail_model(args.tail)
    light = parse_light_model(args.light)
    trunc = parse_truncation(args.trunc)
    seed = args.seed if args.seed is not None else _env_seed()
    spec = TruncatedSampleSpec(tail, light, trunc, args.n, seed)
    sample = sample_truncated(spec)
    try:
        with Path(args.output).open("w") if args.output else contextlib.nullcontext(sys.stdout) as out:
            _samplefile._write_sample(out, sample.values)
            out.flush()
    except BrokenPipeError:
        # The reader stopped early (`trunctail simulate ... | head`, or an
        # --output naming a pipe or FIFO), which is not an error. Point stdout
        # at devnull so the flush at exit is quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return EXIT_OK


class _LongInt(str):
    """The digits of a JSON integer longer than int() converts (4,300 by
    default), kept so that its field is refused by name."""


def _json_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInt(text)


def _no_long_int(value):
    """value, refused if it is or lists a _LongInt: no field takes one."""
    for item in value if isinstance(value, list) else [value]:
        if isinstance(item, _LongInt):
            raise ValueError(f"integer of {len(item.lstrip('-'))} digits is out of range")
    return value


def _json_number(value) -> float:
    """A JSON number that fits a double, as a float; a bool, a string or an
    integer beyond the double range is refused with the value as JSON."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValueError(f"must be a JSON number, got {json.dumps(value)}")


# Each JSON spec field, its converter, and whether it is required; an absent
# optional field keeps the library's default. Integer fields pass through as
# parsed, since ExperimentSpec rejects floats and bools.
_SPEC_FIELDS = {
    "tail": (lambda v: parse_tail_model(str(v)), True),
    "light": (lambda v: parse_light_model(str(v)), True),
    "trunc": (lambda v: parse_truncation(str(v)), True),
    "beta": (_json_number, False),
    "gamma": (_json_number, False),
    "level": (_json_number, False),
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
        doc = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys, parse_int=_json_int)
        if not isinstance(doc, dict):
            raise ValueError("top level must be a JSON object")
        unknown = set(doc) - set(_SPEC_FIELDS)
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(sorted(unknown))}")
        kw = {}
        for name, (convert, required) in _SPEC_FIELDS.items():
            if name in doc:
                try:
                    kw[name] = convert(_no_long_int(doc[name]))
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
    _bind("distributions", "montecarlo")
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
    except KeyboardInterrupt:  # _map_chunks has cancelled and joined its workers
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry() -> None:
    sys.exit(main())
