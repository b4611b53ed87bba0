"""Command line front end: estimate from a data file, run validity
diagnostics, simulate truncated samples, and run replication experiments.

Exit codes: 0 success, 2 usage/validation, 3 insufficient tail data,
4 experiment-wide failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

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
    estimate,
)
from .montecarlo import (
    ExperimentError,
    ExperimentSpec,
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


def _read_sample_file(path: str) -> list[float]:
    """One nonnegative decimal per line; optional 'x' header; blanks ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
    values = _read_sample_file(args.input)
    sample = SampleData(values)
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
    text = "x\n" + "\n".join(repr(float(v)) for v in sample.values) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_EXPERIMENT_FIELDS = (
    "tail", "light", "trunc", "beta", "gamma", "level",
    "n_list", "replications", "base_seed",
)


def _load_experiment_spec(path: str) -> ExperimentSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = set(doc) - set(_EXPERIMENT_FIELDS)
    if unknown:
        raise ValueError(f"{path}: unknown field(s): {', '.join(sorted(unknown))}")

    def field(name: str, convert=lambda v: v, default=None, required: bool = True):
        if name not in doc:
            if required:
                raise ValueError(f"{path}: missing field '{name}'")
            return default
        try:
            return convert(doc[name])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: field '{name}': {exc}") from None

    tail = field("tail", lambda v: parse_tail_model(str(v)))
    light = field("light", lambda v: parse_light_model(str(v)))
    trunc = field("trunc", lambda v: parse_truncation(str(v)))
    beta = field("beta", float, default=0.7, required=False)
    gamma = field("gamma", float, default=0.5, required=False)
    level = field("level", float, default=0.95, required=False)
    # integer fields pass through as parsed; ExperimentSpec rejects floats and bools
    n_list = field("n_list")
    replications = field("replications")
    base_seed = field("base_seed")
    try:
        return ExperimentSpec(
            tail=tail,
            light=light,
            truncation=trunc,
            params=AdaptiveParams(beta=beta, gamma=gamma),
            n_list=n_list,
            replications=replications,
            base_seed=base_seed,
            level=level,
        )
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
    p_est.add_argument("--beta", type=float, default=0.7, help="adaptive count exponent in (0,1)")
    p_est.add_argument("--gamma", type=float, default=0.5, help="threshold fraction in (0,1)")
    p_est.add_argument("--level", type=float, default=0.95, help="confidence level in (0,1)")
    p_est.add_argument("--k", type=int, default=None, help="force a classical fixed k instead of the adaptive count")
    p_est.set_defaults(func=_cmd_estimate)

    p_diag = sub.add_parser("diagnose", help="check the exponent validity windows")
    p_diag.add_argument("--alpha", type=float, required=True, help="tail index > 0")
    p_diag.add_argument("--rho", type=float, required=True, help="second-order exponent < 0")
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


def entry() -> None:
    sys.exit(main())
