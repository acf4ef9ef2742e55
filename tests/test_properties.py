"""Property tests over a fixed pool of simulated tables.

Hypothesis draws from the pool (derandomized, so every run checks the same
cases): parser round-trips, the singleton-free estimator's invariance to the
stored f_1, and the fitted estimators' equivariance under scaling every f_j.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiorich.estimators import ESTIMATOR_FAILURES, breakaway, breakaway_nof1
from ratiorich.freqtab import (
    FrequencyCountTable,
    expand_to_abundances,
    from_abundances,
    parse_frequency_table,
    serialize_frequency_table,
)
from ratiorich.simlab import replicate_rng, sample_nb_counts, truncate_to_observed

# (C, size, prob): Table-1, criterion-5 low diversity, short, long-tailed, and
# the population of the abundance-format benchmark files
_POPULATIONS = [
    (5000, 500, 0.99),
    (5000, 100, 0.95),
    (3000, 1, 0.7),
    (20000, 10, 0.5),
    (3000, 40, 0.9),
]
_POOL = [
    truncate_to_observed(sample_nb_counts(C, size, prob, replicate_rng(808 + k, i)))
    for k, (C, size, prob) in enumerate(_POPULATIONS)
    for i in range(8)
]
_SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _with_f1(tbl: FrequencyCountTable, f1: int) -> FrequencyCountTable:
    counts = {j: f for j, f in tbl.entries if j != 1}
    if f1:
        counts[1] = f1
    return FrequencyCountTable.from_counts(counts)


def _outcome(estimator, tbl):
    try:
        return estimator(tbl)
    except ESTIMATOR_FAILURES as exc:
        return exc


def test_pool_holds_estimates_and_failures():
    outcomes = [_outcome(est, tbl) for est in (breakaway_nof1, breakaway) for tbl in _POOL]
    assert sum(isinstance(o, Exception) for o in outcomes) >= 2
    assert len({(o.model.p, o.model.q) for o in outcomes if not isinstance(o, Exception)}) >= 2


class TestRoundTrips:
    @_SETTINGS
    @given(tbl=st.sampled_from(_POOL))
    def test_serialized_table_parses_back(self, tbl):
        text = serialize_frequency_table(tbl)
        assert parse_frequency_table(text) == tbl
        assert serialize_frequency_table(parse_frequency_table(text)) == text

    @_SETTINGS
    @given(tbl=st.sampled_from(_POOL), order=st.integers(0, 2**32 - 1))
    def test_abundances_reduce_back_in_any_order(self, tbl, order):
        abundances = expand_to_abundances(tbl)
        assert abundances == sorted(abundances)
        random.Random(order).shuffle(abundances)
        assert from_abundances(abundances) == tbl


class TestNof1SingletonInvariance:
    @_SETTINGS
    @given(tbl=st.sampled_from(_POOL), f1=st.sampled_from([1, 10**6]))
    def test_stored_f1_never_enters(self, tbl, f1):
        absent = _outcome(breakaway_nof1, _with_f1(tbl, 0))
        present = _outcome(breakaway_nof1, _with_f1(tbl, f1))
        if isinstance(absent, Exception):
            assert type(present) is type(absent) and str(present) == str(absent)
            return
        fields = ("C_hat", "se", "f0_hat", "f1_hat", "model")
        assert [getattr(present, k) for k in fields] == [getattr(absent, k) for k in fields]


class TestScaleEquivariance:
    """Every f_j times k scales C, f0 and f1 by k: the ratios stay and the weights scale alike."""

    @_SETTINGS
    @given(
        tbl=st.sampled_from(_POOL),
        k=st.integers(2, 7),
        estimator=st.sampled_from([breakaway_nof1, breakaway]),
    )
    def test_scaled_table_scales_the_estimate(self, tbl, k, estimator):
        base = _outcome(estimator, tbl)
        scaled = _outcome(estimator, FrequencyCountTable.from_counts(
            {j: k * f for j, f in tbl.entries}
        ))
        if isinstance(base, Exception):
            assert type(scaled) is type(base)
            return
        assert (scaled.model.p, scaled.model.q) == (base.model.p, base.model.q)
        assert scaled.C_hat == pytest.approx(k * base.C_hat, rel=1e-6)
        assert scaled.f0_hat == pytest.approx(k * base.f0_hat, rel=1e-6)
        if base.f1_hat is not None:
            assert scaled.f1_hat == pytest.approx(k * base.f1_hat, rel=1e-6)
