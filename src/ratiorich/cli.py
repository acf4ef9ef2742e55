"""Command-line interface: estimation, simulation, SE calibration, rarefaction.

Exit codes are a stable contract: 0 success, 1 input/config error, 2 when
every requested estimator failed. Every run echoes its resolved configuration
(seed included) to stderr so it can be replayed exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import secrets
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__, simlab
from ._output import to_csv, to_json
from .estimators import ESTIMATORS, _check_names, _estimate_batch
from .freqtab import (
    from_abundances,
    parse_abundance_vector,
    parse_frequency_table,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_ALL_FAILED = 2

LOW_REPS_THRESHOLD = 30
ESTIMATE_COLUMNS = (
    "estimator", "C_hat", "se", "f0_hat", "f1_hat", "model_p", "model_q", "warnings", "error"
)
CALIBRATION_COLUMNS = (
    "C", "size", "prob", "estimator", "median_se", "mad_scaled", "relative_error_pct",
    "failures", "reps", "seed",
)


class _Parser(argparse.ArgumentParser):
    # flag/usage problems are config errors: exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _fresh_seed() -> int:
    return secrets.randbits(63)


def _echo_config(cfg: dict) -> None:
    print("resolved config: " + json.dumps(cfg), file=sys.stderr)


def _envelope(command: str, cfg: dict, results, warning_list: list[str]) -> dict:
    return {
        "tool": "ratiorich",
        "version": __version__,
        "command": command,
        "config": cfg,
        "warnings": warning_list,
        "results": results,
    }


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _check_precision(precision: int) -> None:
    if precision < 0:
        raise ValueError(f"precision must be >= 0, got {precision}")


def _parse_estimator_list(text: str) -> tuple[str, ...]:
    names = tuple(x.strip() for x in text.split(",") if x.strip())
    _check_names(names)
    return names


def cmd_estimate(args) -> int:
    try:
        _check_precision(args.precision)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    global_warnings: list[str] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.format == "freq":
                table = parse_frequency_table(text)
            else:
                table = from_abundances(parse_abundance_vector(text))
        global_warnings.extend(str(w.message) for w in caught)
    except ValueError as exc:
        print(f"error: invalid {args.format} input: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    cfg = {
        "input": args.input,
        "format": args.format,
        "estimator": args.estimator,
        "output": args.output,
        "precision": args.precision,
    }
    _echo_config(cfg)
    names = list(ESTIMATORS) if args.estimator == "all" else [args.estimator]
    results = []
    for name, (outcome,) in _estimate_batch(names, [table]).items():
        est, error = (None, str(outcome)) if isinstance(outcome, Exception) else (outcome, None)
        model = getattr(est, "model", None)
        results.append(
            {
                "estimator": name,
                **{k: getattr(est, k, None) for k in ("C_hat", "se", "f0_hat", "f1_hat")},
                "model_p": getattr(model, "p", None),
                "model_q": getattr(model, "q", None),
                "warnings": getattr(est, "warnings", []),
                "error": error,
            }
        )
    if args.output == "json":
        text = to_json(_envelope("estimate", cfg, results, global_warnings))
    else:
        text = to_csv(ESTIMATE_COLUMNS, results, args.precision)
    _write_text(args.out, text)
    return EXIT_OK if any(row["error"] is None for row in results) else EXIT_ALL_FAILED


def cmd_simulate(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    try:
        estimators = _parse_estimator_list(args.estimators)
        if args.workers < 1:
            raise ValueError("workers must be >= 1")
        _check_precision(args.precision)
        cfg = simlab.SimulationConfig(
            C=args.C,
            size=args.size,
            prob=args.prob,
            chimeric_rate=args.rate,
            reps=args.reps,
            seed=seed,
            estimators=estimators,
            trim=args.trim,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    fmt = args.output
    if fmt is None:
        fmt = "json" if args.out.endswith(".json") else "csv"
    resolved = {
        "C": cfg.C,
        "size": cfg.size,
        "prob": cfg.prob,
        "rate": cfg.chimeric_rate,
        "reps": cfg.reps,
        "seed": cfg.seed,
        "trim": cfg.trim,
        "estimators": list(cfg.estimators),
        "workers": args.workers,
        "out": args.out,
        "output": fmt,
        "include_runtimes": args.include_runtimes,
    }
    _echo_config(resolved)
    report = simlab.run_replications(cfg, workers=args.workers)
    if fmt == "json":
        text = simlab.report_to_json(report, include_runtimes=args.include_runtimes)
    else:
        text = simlab.report_to_csv(
            report, include_runtimes=args.include_runtimes, precision=args.precision
        )
    _write_text(args.out, text)
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def cmd_calibrate_se(args) -> int:
    seed = args.seed if args.seed is not None else _fresh_seed()
    try:
        c_list = _parse_int_list(args.C_list)
        size_list = _parse_int_list(args.size_list)
        prob_list = _parse_float_list(args.prob_list)
        if not c_list or not size_list or not prob_list:
            raise ValueError("empty parameter list")
        if args.workers < 1:
            raise ValueError("workers must be >= 1")
        _check_precision(args.precision)
        if args.grid == "zip":
            if not (len(c_list) == len(size_list) == len(prob_list)):
                raise ValueError("zipped lists must have equal lengths")
            combos = list(zip(c_list, size_list, prob_list))
        else:
            combos = list(itertools.product(c_list, size_list, prob_list))
        configs = [
            simlab.SimulationConfig(
                C=c_true,
                size=size,
                prob=prob,
                chimeric_rate=args.rate,
                reps=args.reps,
                seed=seed,
                estimators=(args.estimator,),
                trim=args.trim,
            )
            for c_true, size, prob in combos
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    global_warnings: list[str] = []
    if args.reps < LOW_REPS_THRESHOLD:
        note = f"only {args.reps} replicates; calibration statistics will be unstable"
        global_warnings.append(note)
        print(f"warning: {note}", file=sys.stderr)

    resolved = {
        "C_list": c_list,
        "size_list": size_list,
        "prob_list": prob_list,
        "grid": args.grid,
        "estimator": args.estimator,
        "rate": args.rate,
        "reps": args.reps,
        "seed": seed,
        "trim": args.trim,
        "workers": args.workers,
        "output": args.output,
    }
    _echo_config(resolved)

    rows = []
    for cfg in configs:
        report = simlab.run_replications(cfg, workers=args.workers)
        cal = None
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                cal = simlab.calibration_from_report(report)
            row_warnings = [str(w.message) for w in caught]
        except simlab.AllReplicatesFailedError as exc:
            row_warnings = [str(exc)]
        rows.append(
            {
                "C": cfg.C,
                "size": cfg.size,
                "prob": cfg.prob,
                "estimator": args.estimator,
                "median_se": getattr(cal, "median_se", None),
                "mad_scaled": getattr(cal, "mad_of_estimates", None),
                "relative_error_pct": getattr(cal, "relative_error_percent", None),
                "failures": report.stats[0].failures,
                "reps": args.reps,
                "seed": seed,
                "warnings": row_warnings,
            }
        )
    if args.output == "json":
        text = to_json(_envelope("calibrate-se", resolved, rows, global_warnings))
    else:
        text = to_csv(CALIBRATION_COLUMNS, rows, args.precision)
    _write_text(args.out, text)
    return EXIT_OK


def cmd_rarefy(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        abundances = parse_abundance_vector(text)
    except ValueError as exc:
        print(
            "error: rarefaction requires abundance-format input"
            f" (one positive count per line): {exc}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    try:
        requested = _parse_float_list(args.fractions)
        if not requested:
            raise ValueError("no fractions given")
        if any(not (0.0 < x <= 1.0) for x in requested):
            raise ValueError("fractions must lie in (0, 1]")
        estimators = _parse_estimator_list(args.estimators)
        if args.reps < 1:
            raise ValueError("reps must be >= 1")
        _check_precision(args.precision)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    fractions = sorted(set(requested))
    if fractions != requested:
        print("warning: fractions reordered/deduplicated for output", file=sys.stderr)

    seed = args.seed if args.seed is not None else _fresh_seed()
    resolved = {
        "input": args.input,
        "fractions": fractions,
        "reps": args.reps,
        "seed": seed,
        "estimators": list(estimators),
        "precision": args.precision,
    }
    _echo_config(resolved)
    rng = np.random.default_rng(seed)
    curve = simlab.subsample_curve(abundances, fractions, args.reps, rng, estimators)
    columns = [f.name for f in dataclasses.fields(simlab.CurveRow)]
    rows = [dataclasses.asdict(row) for row in curve]
    _write_text(args.out, to_csv(columns, rows, args.precision))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ratiorich", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="richness estimates for one dataset")
    est.add_argument("--input", required=True, help="frequency table or abundance file")
    est.add_argument("--format", choices=("freq", "abundance"), default="freq")
    est.add_argument("--estimator", choices=(*ESTIMATORS, "all"), default="all")
    est.add_argument("--output", choices=("json", "csv"), default="json")
    est.add_argument("--out", default=None, help="output file (default stdout)")
    est.add_argument("--precision", type=int, default=4, help="CSV decimal places")
    est.set_defaults(func=cmd_estimate)

    sim = sub.add_parser("simulate", help="replicated error statistics on synthetic data")
    sim.add_argument("--C", type=int, required=True, help="true richness")
    sim.add_argument("--size", type=int, required=True, help="negative-binomial size")
    sim.add_argument("--prob", type=float, required=True, help="negative-binomial probability")
    sim.add_argument("--rate", type=float, default=0.0, help="singleton inflation percent")
    sim.add_argument("--reps", type=int, required=True)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trim", type=float, default=0.2)
    sim.add_argument("--estimators", default=",".join(ESTIMATORS))
    sim.add_argument("--out", required=True, help="report file")
    sim.add_argument("--output", choices=("json", "csv"), default=None,
                     help="report format (default: by file extension, else csv)")
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--precision", type=int, default=4, help="CSV decimal places")
    sim.add_argument("--include-runtimes", action="store_true",
                     help="add wall-clock rows (not reproducible bit-for-bit)")
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser("calibrate-se", help="reported SE vs actual spread over a grid")
    cal.add_argument("--C-list", dest="C_list", required=True, help="comma list")
    cal.add_argument("--size-list", dest="size_list", required=True, help="comma list")
    cal.add_argument("--prob-list", dest="prob_list", required=True, help="comma list")
    cal.add_argument("--grid", choices=("zip", "cross"), default="zip")
    cal.add_argument("--estimator", choices=tuple(ESTIMATORS), default="nof1")
    cal.add_argument("--rate", type=float, default=0.0)
    cal.add_argument("--reps", type=int, required=True)
    cal.add_argument("--seed", type=int, default=None)
    cal.add_argument("--trim", type=float, default=0.2)
    cal.add_argument("--workers", type=int, default=1)
    cal.add_argument("--out", default=None, help="output file (default stdout)")
    cal.add_argument("--output", choices=("json", "csv"), default="csv")
    cal.add_argument("--precision", type=int, default=4)
    cal.set_defaults(func=cmd_calibrate_se)

    rar = sub.add_parser("rarefy", help="subsampling curves from an abundance vector")
    rar.add_argument("--input", required=True, help="abundance file, one count per line")
    rar.add_argument("--fractions", required=True, help="comma list in (0, 1]")
    rar.add_argument("--reps", type=int, default=100)
    rar.add_argument("--seed", type=int, default=None)
    rar.add_argument("--estimators", default=",".join(ESTIMATORS))
    rar.add_argument("--out", default=None, help="output file (default stdout)")
    rar.add_argument("--precision", type=int, default=4)
    rar.set_defaults(func=cmd_rarefy)

    return parser


@functools.lru_cache(maxsize=1)
def _parser(names: tuple[str, ...]) -> argparse.ArgumentParser:
    """build_parser's parser, built again only when the registry's names change."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser(tuple(ESTIMATORS)).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
