"""Byte-for-byte golden output of every subcommand and output format.

Each case runs the CLI in a fresh directory with relative paths, so the
echoed configuration is fixed, and compares stdout, stderr and any report
file against tests/golden/<case>.<stream>. No golden byte depends on a
least-squares fit: values come from chao1, from stubs swapped into the
estimator registry, or from calibration rows that never reach a fit.
"""

from __future__ import annotations

import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from ratiorich.cli import main
from ratiorich.estimators import (
    ESTIMATORS,
    NoAdmissibleModelError,
    RichnessEstimate,
    SelectionTrace,
)
from ratiorich.freqtab import observed_richness
from ratiorich.simlab import SimulationConfig, report_to_csv, run_replications

GOLDEN = Path(__file__).parent / "golden"

FREQ_WITH_HEADER = "j,f\n1,10\n2,5\n3,2\n"
ABUNDANCES = "".join(f"{x}\n" for x in [1] * 12 + [2] * 6 + [3] * 3 + [5] * 2 + [9])


def _estimate_stub(name, model, warnings):
    def stub(table):
        c = observed_richness(table)
        return RichnessEstimate(
            estimator=name,
            C_hat=c * 1.5 + table.get(2) / 3.0,
            f0_hat=c * 0.5 + table.get(2) / 3.0,
            f1_hat=table.get(2) * 0.7 if name == "nof1" else None,
            se=math.nan,
            model=model,
            warnings=list(warnings),
        )

    return stub


def _no_model(table):
    raise NoAdmissibleModelError("no admissible model, ladder exhausted", SelectionTrace())


# nof1: NaN se, NaN model degrees and a warning with a comma; breakaway raises.
NAN_STUBS = {
    "nof1": _estimate_stub(
        "nof1",
        SimpleNamespace(p=math.nan, q=math.nan),
        ["variance clamped, tail short", "second note"],
    ),
    "breakaway": _no_model,
}
# nof1: integer model degrees and no warnings; breakaway raises.
FITTED_STUBS = {
    "nof1": _estimate_stub("nof1", SimpleNamespace(p=2, q=1), []),
    "breakaway": _no_model,
}

SIMULATE = [
    "simulate", "--C", "40", "--size", "2", "--prob", "0.3", "--reps", "6",
    "--seed", "5", "--estimators", "chao1,nof1,breakaway",
]
CAL_ALL_FAIL = [
    "calibrate-se", "--C-list", "5", "--size-list", "1", "--prob-list", "0.9",
    "--estimator", "nof1", "--reps", "4", "--seed", "9",
]
CAL_ZERO_SPREAD = [
    "calibrate-se", "--C-list", "2", "--size-list", "50", "--prob-list", "0.5",
    "--estimator", "chao1", "--reps", "5", "--seed", "9",
]

# (case, argv, registry stubs, report file written by --out, expected exit code)
CASES = [
    ("estimate-json", ["estimate", "--input", "table.txt"], NAN_STUBS, None, 0),
    (
        "estimate-csv",
        ["estimate", "--input", "table.txt", "--output", "csv", "--precision", "3"],
        NAN_STUBS, None, 0,
    ),
    (
        "estimate-csv-fitted",
        ["estimate", "--input", "table.txt", "--output", "csv"],
        FITTED_STUBS, None, 0,
    ),
    (
        "estimate-json-all-failed",
        ["estimate", "--input", "table.txt", "--estimator", "breakaway"],
        NAN_STUBS, None, 2,
    ),
    ("simulate-csv", SIMULATE + ["--out", "report.csv"], NAN_STUBS, "report.csv", 0),
    ("simulate-json", SIMULATE + ["--out", "report.json"], NAN_STUBS, "report.json", 0),
    ("calibrate-se-csv-all-failed", CAL_ALL_FAIL, {}, None, 0),
    ("calibrate-se-json-all-failed", CAL_ALL_FAIL + ["--output", "json"], {}, None, 0),
    ("calibrate-se-csv-zero-spread", CAL_ZERO_SPREAD, {}, None, 0),
    ("calibrate-se-json-zero-spread", CAL_ZERO_SPREAD + ["--output", "json"], {}, None, 0),
    (
        "rarefy-csv",
        [
            "rarefy", "--input", "abundances.txt", "--fractions", "1.0,0.25,0.5",
            "--reps", "3", "--seed", "2", "--precision", "2",
        ],
        NAN_STUBS, None, 0,
    ),
]


def run_case(argv, stubs, report_file, monkeypatch, capsys, tmp_path) -> tuple[int, dict]:
    """Run one case in tmp_path; return its exit code and its output streams."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "table.txt").write_text(FREQ_WITH_HEADER)
    (tmp_path / "abundances.txt").write_text(ABUNDANCES)
    for name, stub in stubs.items():
        monkeypatch.setitem(ESTIMATORS, name, stub)
    code = main(argv)
    captured = capsys.readouterr()
    streams = {"stdout": captured.out, "stderr": captured.err}
    if report_file is not None:
        streams["report"] = (tmp_path / report_file).read_text()
    return code, streams


@pytest.mark.parametrize(
    "case, argv, stubs, report_file, exit_code", CASES, ids=[c[0] for c in CASES]
)
def test_golden_output(case, argv, stubs, report_file, exit_code, monkeypatch, capsys, tmp_path):
    code, streams = run_case(argv, stubs, report_file, monkeypatch, capsys, tmp_path)
    assert code == exit_code
    for stream, text in streams.items():
        assert text == (GOLDEN / f"{case}.{stream}").read_text(), f"{case} {stream}"


def test_golden_report_csv_full_precision(monkeypatch):
    # the library writer's default keeps every digit (repr), unlike the CLI
    for name, stub in NAN_STUBS.items():
        monkeypatch.setitem(ESTIMATORS, name, stub)
    cfg = SimulationConfig(C=40, size=2, prob=0.3, reps=6, seed=5)
    text = report_to_csv(run_replications(cfg))
    assert text == (GOLDEN / "report-full-precision.csv").read_text()
