"""Command-line interface: estimation, simulation, SE calibration, rarefaction.

Exit codes are a stable contract: 0 success, 1 input/config error, 2 when
every requested estimator failed. Every run goes validate, echo, run: all input
is read and checked first, as is that the --out file can be written, and bad
input exits 1 with one error line; then the resolved configuration (seed
included) is echoed to stderr so the run can be replayed exactly; only then
does the work start.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import itertools
import json
import os
import stat
import sys
import warnings
from collections.abc import Callable
from pathlib import Path

import numpy as np

from . import __version__, simlab
from ._output import to_csv, to_json
from .estimators import ESTIMATORS, _check_names, _estimate_batch
from .freqtab import (
    _count,
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


def _seed(args) -> int:
    """--seed, or a fresh seed in [0, 2**63) from the OS's entropy when it is omitted."""
    if args.seed is None:
        return int.from_bytes(os.urandom(8), "big") >> 1
    return simlab._check_seed(args.seed)


def _envelope(command: str, cfg: dict, results, warning_list: list[str]) -> dict:
    return {
        "tool": "ratiorich",
        "version": __version__,
        "command": command,
        "config": cfg,
        "warnings": warning_list,
        "results": results,
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _check_out(path: str | None) -> None:
    """Reject an --out file that cannot be written, without creating or truncating it.

    The message names the errno that opening the file would most likely
    raise. _write_text still reports a write that fails later.
    """
    if path in (None, "-"):
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:  # writable if its directory exists and is writable
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOENT
        else:
            code = 0 if os.access(parent, os.W_OK | os.X_OK) else errno.EACCES
    except OSError as exc:  # a file where a directory should be, a search denied
        code = exc.errno
    else:
        if stat.S_ISDIR(mode):
            code = errno.EISDIR
        else:
            code = 0 if os.access(path, os.W_OK) else errno.EACCES
    if code:
        raise ValueError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def _write_text(path: str | None, text: str, code: int = EXIT_OK) -> int:
    """Write `text` to stdout or to the file `path`; return `code`, or 1 if the write fails."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return code
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return code


def _check_precision(precision: int) -> None:
    if precision < 0:
        raise ValueError(f"precision must be >= 0, got {precision}")


def _parse_estimator_list(text: str) -> tuple[str, ...]:
    names = tuple(x.strip() for x in text.split(",") if x.strip())
    _check_names(names)
    return names


def cmd_estimate(args) -> tuple[dict, Callable[[], int]]:
    text = _read(args.input)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.format == "freq":
                table = parse_frequency_table(text)
            else:
                table = from_abundances(parse_abundance_vector(text))
        except ValueError as exc:
            raise ValueError(f"invalid {args.format} input: {exc}") from exc
    global_warnings = [str(w.message) for w in caught]
    cfg = {
        "input": args.input,
        "format": args.format,
        "estimator": args.estimator,
        "output": args.output,
        "precision": args.precision,
    }

    def run() -> int:
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
        ok = any(row["error"] is None for row in results)
        return _write_text(args.out, text, EXIT_OK if ok else EXIT_ALL_FAILED)

    return cfg, run


def _simulation_config(args, seed: int, estimators, C: int, size: int, prob: float):
    """One run's SimulationConfig from --rate, --reps and --trim; --workers is checked too."""
    _count(args.workers, "workers")
    return simlab.SimulationConfig(
        C=C,
        size=size,
        prob=prob,
        chimeric_rate=args.rate,
        reps=args.reps,
        seed=seed,
        estimators=estimators,
        trim=args.trim,
    )


def cmd_simulate(args) -> tuple[dict, Callable[[], int]]:
    estimators = _parse_estimator_list(args.estimators)
    cfg = _simulation_config(args, _seed(args), estimators, args.C, args.size, args.prob)
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

    def run() -> int:
        report = simlab.run_replications(cfg, workers=args.workers)
        if fmt == "json":
            text = simlab.report_to_json(report, include_runtimes=args.include_runtimes)
        else:
            text = simlab.report_to_csv(
                report, include_runtimes=args.include_runtimes, precision=args.precision
            )
        return _write_text(args.out, text)

    return resolved, run


def _parse_list(text: str, flag: str, kind: type) -> list:
    """The comma-separated items of a list flag, each read as kind (int or float)."""
    out = []
    for item in filter(None, (x.strip() for x in text.split(","))):
        try:
            out.append(kind(item))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag}: not {noun}: {item!r}") from None
    return out


def cmd_calibrate_se(args) -> tuple[dict, Callable[[], int]]:
    seed = _seed(args)
    c_list = _parse_list(args.C_list, "--C-list", int)
    size_list = _parse_list(args.size_list, "--size-list", int)
    prob_list = _parse_list(args.prob_list, "--prob-list", float)
    if not c_list or not size_list or not prob_list:
        raise ValueError("empty parameter list")
    if args.grid == "zip":
        if not (len(c_list) == len(size_list) == len(prob_list)):
            raise ValueError("zipped lists must have equal lengths")
        combos = list(zip(c_list, size_list, prob_list))
    else:
        combos = list(itertools.product(c_list, size_list, prob_list))
    configs = [_simulation_config(args, seed, (args.estimator,), *combo) for combo in combos]

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

    def run() -> int:
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
        return _write_text(args.out, text)

    return resolved, run


def cmd_rarefy(args) -> tuple[dict, Callable[[], int]]:
    text = _read(args.input)
    try:
        abundances = parse_abundance_vector(text)
    except ValueError as exc:
        raise ValueError(
            "rarefaction requires abundance-format input"
            f" (one positive count per line): {exc}"
        ) from exc
    requested = _parse_list(args.fractions, "--fractions", float)
    simlab._check_curve_arguments(requested, args.reps)
    estimators = _parse_estimator_list(args.estimators)
    seed = _seed(args)
    rng = np.random.default_rng(seed)
    fractions = sorted(set(requested))
    if fractions != requested:
        print("warning: fractions reordered/deduplicated for output", file=sys.stderr)
    resolved = {
        "input": args.input,
        "fractions": fractions,
        "reps": args.reps,
        "seed": seed,
        "estimators": list(estimators),
        "precision": args.precision,
    }

    def run() -> int:
        curve = simlab.subsample_curve(abundances, fractions, args.reps, rng, estimators)
        columns = [f.name for f in dataclasses.fields(simlab.CurveRow)]
        rows = [dataclasses.asdict(row) for row in curve]
        return _write_text(args.out, to_csv(columns, rows, args.precision))

    return resolved, run


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
    try:
        _check_precision(args.precision)
        _check_out(args.out)
        resolved, run = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print("resolved config: " + json.dumps(resolved), file=sys.stderr)
    # outside the handler: a ValueError raised by the work itself is a fault, not bad input
    return run()


if __name__ == "__main__":
    sys.exit(main())
