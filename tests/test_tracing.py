"""The traced benchmark run (bench/tracing.py) against the package it patches.

The bench's --trace pass swaps package attributes for span-recording wrappers
by name; a refactor that renames one of them, or changes what an estimate
computes under the wrappers, would otherwise go unnoticed until that pass runs.
"""

import importlib.util
import inspect
from pathlib import Path

import ratiorich
from ratiorich import cli, estimators, freqtab, ratiofit, simlab
from ratiorich.estimators import ESTIMATORS, _estimate_batch

from test_estimators import assert_same_outcome, mixed_tables

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

# The package attributes the traced run reads its per-layer metrics through.
_PATCHED = {
    estimators: (
        "build_ratio_series",
        "select_model",
        "derived_quantities",
        "nof1_standard_error",
    ),
    ratiofit: ("fit_wnls", "tail_cutoff"),
    simlab: ("sample_nb_counts", "truncate_to_observed", "apply_chimeric_inflation"),
    cli: ("main", "parse_frequency_table", "parse_abundance_vector", "from_abundances"),
    freqtab.FrequencyCountTable: ("get",),
}


def test_every_patched_attribute_resolves_and_is_restored():
    originals = {
        (owner, attr): getattr(owner, attr) for owner, attrs in _PATCHED.items() for attr in attrs
    }
    registry = dict(ESTIMATORS)
    with tracing.instrument(tracing.Tracer(), ratiorich):
        for (owner, attr), original in originals.items():
            patched = getattr(owner, attr)
            assert patched is not original and inspect.unwrap(patched) is original, attr
        assert all(ESTIMATORS[name].__wrapped__ is fn for name, fn in registry.items())
    assert all(getattr(owner, attr) is original for (owner, attr), original in originals.items())
    assert ESTIMATORS == registry


def test_traced_estimates_equal_untraced():
    tables = mixed_tables()
    names = tuple(ESTIMATORS)
    plain = _estimate_batch(names, tables)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, ratiorich):
        traced = _estimate_batch(names, tables)
    for name in names:
        for got, want in zip(traced[name], plain[name], strict=True):
            assert_same_outcome(got, want)
    assert tracing.check_spans(tracer.spans) == []
    layers, problems = tracing.layer_metrics(tracer.spans, {None})
    assert problems == []
    # every fitted estimate derives its quantities once; failures never get that far
    fitted = sum(
        not isinstance(outcome, Exception)
        for name in ("nof1", "breakaway")
        for outcome in plain[name]
    )
    assert sum(s.name == "ratiofit.derived" for s in tracer.spans) == fitted
    assert layers["estimators.outcome.accepted"] == fitted
