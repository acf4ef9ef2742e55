import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "module",
    ["ratiorich", "ratiorich.freqtab", "ratiorich.ratiofit", "ratiorich.estimators", "ratiorich.simlab"],
)
def test_star_import_resolves_every_listed_name(module):
    # a star-import raises AttributeError on a listed name the module no longer defines
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= namespace.keys()


# the 45 names the package exported before it re-exported its modules' __all__;
# a module that drops one breaks callers of ratiorich.X
TOP_LEVEL_NAMES = frozenset({
    "__version__", "FrequencyCountTable", "InsufficientDataError", "parse_frequency_table",
    "parse_abundance_vector", "from_abundances", "observed_richness", "tail_cutoff",
    "serialize_frequency_table", "expand_to_abundances", "RationalModel", "RatioSeries",
    "FitResult", "RankDeficiencyError", "DerivedQuantities", "build_ratio_series", "eval_model",
    "fit_wnls", "derived_quantities", "ESTIMATORS", "LADDER", "RichnessEstimate",
    "SelectionTrace", "NoAdmissibleModelError", "select_model", "breakaway", "breakaway_nof1",
    "nof1_standard_error", "chao1", "SimulationConfig", "SimulationReport", "CalibrationResult",
    "CurveRow", "DegenerateSampleError", "AllReplicatesFailedError", "replicate_rng",
    "sample_nb_counts", "truncate_to_observed", "apply_chimeric_inflation", "run_replications",
    "error_stats", "scaled_mad", "se_calibration", "subsample_curve", "runtime_report"
})


def test_package_exports_each_module_all_once():
    import ratiorich
    from ratiorich import estimators, freqtab, ratiofit, simlab

    modules = [*freqtab.__all__, *ratiofit.__all__, *estimators.__all__, *simlab.__all__]
    assert ratiorich.__all__ == ["__version__", *modules]
    assert len(set(ratiorich.__all__)) == len(ratiorich.__all__)
    assert TOP_LEVEL_NAMES <= set(ratiorich.__all__)

FOOTPRINT_SCRIPT = """
import contextlib, io, sys
import ratiorich, ratiorich.cli

LAZY = ("multiprocessing", "concurrent.futures.process", "secrets", "numpy.polynomial")
def loaded(names):
    return [name for name in names if name in sys.modules]

ratiorich.breakaway_nof1(ratiorich.from_abundances([1] * 30 + [2] * 12 + [3] * 6 + [4] * 3 + [5, 6]))
with contextlib.redirect_stdout(io.StringIO()):
    assert ratiorich.cli.main(["estimate", "--input", sys.argv[1], "--estimator", "all"]) == 0
print("estimate", loaded(LAZY))
cfg = ratiorich.SimulationConfig(C=300, size=500, prob=0.99, reps=4, seed=1)
serial = ratiorich.simlab.report_to_json(ratiorich.run_replications(cfg))
print("serial", loaded(LAZY))
assert ratiorich.simlab.report_to_json(ratiorich.run_replications(cfg, workers=2)) == serial
print("pool", loaded(LAZY))
"""


def test_single_process_runs_do_not_load_the_pool(tmp_path):
    table = tmp_path / "freq.txt"
    table.write_text("1,30\n2,12\n3,6\n4,3\n5,1\n6,1\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(table)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert lines["estimate"] == "[]"
    # numpy.random, which sampling needs, imports secrets itself
    assert lines["serial"] in ("[]", "['secrets']")
    assert "concurrent.futures.process" in lines["pool"]
