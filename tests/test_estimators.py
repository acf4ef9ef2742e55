import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import ratiorich
from ratiorich import estimators
from ratiorich.estimators import (
    ESTIMATOR_FAILURES,
    ESTIMATORS,
    GROWTH_ALPHA,
    NoAdmissibleModelError,
    RichnessEstimate,
    _estimate_batch,
    _f_critical,
    breakaway,
    breakaway_nof1,
    chao1,
    nof1_standard_error,
    select_model,
)
from ratiorich.freqtab import FrequencyCountTable, observed_richness
from ratiorich.ratiofit import FitResult, RationalModel, build_ratio_series
from ratiorich.simlab import replicate_rng, sample_nb_counts, truncate_to_observed

from helpers import random_contiguous_table, table
from test_ratiofit import series_from_points


def synthetic_fit(beta, alpha=(), cov=None):
    """A hand-built converged FitResult for formula-level tests."""
    model = RationalModel(tuple(beta), tuple(alpha))
    k = model.n_coef
    return FitResult(
        model=model,
        cov=np.zeros((k, k)) if cov is None else np.asarray(cov, dtype=float),
        residuals=np.zeros(4),
        converged=True,
        iterations=1,
        weighted_sse=0.0,
        weights=np.ones(4),
    )


class TestSelectModel:
    def test_geometric_series_accepts_smallest(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5), (6, 0.5)])
        fit, trace = select_model(s)
        assert (fit.model.p, fit.model.q) == (1, 0)
        assert trace.accepted == (1, 0)
        assert fit.model.beta[0] == pytest.approx(0.5, abs=1e-9)

    def test_negative_intercept_rejected_and_ladder_advances(self):
        # exact line through these points has intercept -0.35 < 0 under any
        # weighting, so (1,0) is inadmissible; remaining rungs lack points
        s = series_from_points([(2, 0.05), (3, 0.25), (4, 0.45), (5, 0.65)])
        with pytest.raises(NoAdmissibleModelError) as excinfo:
            select_model(s)
        outcomes = {(p, q): o for p, q, o in excinfo.value.trace.tried}
        assert outcomes[(1, 0)] == "negative-f0"
        assert outcomes[(2, 1)] == "insufficient-dof"
        assert outcomes[(3, 2)] == "insufficient-dof"
        assert outcomes[(4, 3)] == "insufficient-dof"

    def test_three_point_series_only_first_rung_attemptable(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5)])
        fit, trace = select_model(s)
        assert (fit.model.p, fit.model.q) == (1, 0)
        assert [o for _, _, o in trace.tried].count("insufficient-dof") == 3

    def test_at_most_one_accepted_and_deterministic(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            t = random_contiguous_table(rng, j_start=2, min_points=6)
            s = build_ratio_series(t, 2)
            try:
                _, trace1 = select_model(s, require_f1=True)
                _, trace2 = select_model(s, require_f1=True)
            except NoAdmissibleModelError:
                continue
            assert trace1.tried == trace2.tried
            assert [o for _, _, o in trace1.tried].count("accepted") == 1

    def test_require_f1_rejects_negative_b(self):
        # exact quadratic r = (j - 0.6)(j - 1.2): positive on j >= 2, positive
        # at j = 0 (so f0 would be fine) but negative at j = 1, so the
        # predicted singleton count is inadmissible. (1,0) fails on its
        # intercept; the unique zero-residual (2,1) interpolant is the
        # quadratic itself, whose value at 1 is -0.08 < 0.
        points = [(j, (j - 0.6) * (j - 1.2)) for j in range(2, 8)]
        s = series_from_points(points)
        with pytest.raises(NoAdmissibleModelError) as excinfo:
            select_model(s, require_f1=True)
        outcomes = {(p, q): o for p, q, o in excinfo.value.trace.tried}
        assert outcomes[(2, 1)] == "negative-f1"

    def test_require_f1_accepts_positive_line(self):
        s = series_from_points([(2, 0.8), (3, 0.55), (4, 0.3), (5, 0.05)])
        # exact line: slope -0.25, intercept 1.3, so b = 1.05 > 0
        fit, trace = select_model(s, require_f1=True)
        assert trace.accepted == (1, 0)
        assert fit.model.beta[0] == pytest.approx(1.3, abs=1e-8)


class TestEstimateBatch:
    def test_matches_table_by_table(self):
        # Table-1 draws plus short and sparse ones, several of which fail
        populations = [(5000, 500, 0.99)] * 5 + [(3000, 1, 0.7), (40, 2, 0.7), (20000, 10, 0.5)] * 2
        tables = [
            truncate_to_observed(sample_nb_counts(C, size, prob, replicate_rng(77, i)))
            for i, (C, size, prob) in enumerate(populations)
        ]
        failed = 0
        for name in ESTIMATORS:
            for tbl, got in zip(tables, _estimate_batch((name,), tables)[name]):
                try:
                    want = ESTIMATORS[name](tbl)
                except ESTIMATOR_FAILURES as exc:
                    failed += 1
                    assert type(got) is type(exc) and str(got) == str(exc)
                    continue
                assert got == want
        assert failed > 0


def mixed_tables() -> list[FrequencyCountTable]:
    """Table-1 draws, short and sparse draws, and a table without singletons."""
    populations = [(5000, 500, 0.99)] * 4 + [(3000, 1, 0.7), (40, 2, 0.7), (20000, 10, 0.5)] * 2
    draws = [
        truncate_to_observed(sample_nb_counts(C, size, prob, replicate_rng(77, i)))
        for i, (C, size, prob) in enumerate(populations)
    ]
    return draws + [table({2: 60, 3: 41, 4: 30, 5: 19, 6: 14, 7: 9, 8: 6})]


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert (got.C_hat, got.se, got.model, got.warnings) == (
            want.C_hat, want.se, want.model, want.warnings,
        )
        assert got == want


class TestJointBatch:
    """Every fitted estimator of a batch selects its models in one joint batch."""

    def test_matches_each_estimator_table_by_table(self):
        tables = mixed_tables()
        joint = _estimate_batch(tuple(ESTIMATORS), tables)
        assert list(joint) == list(ESTIMATORS)
        for name in ESTIMATORS:
            for tbl, got in zip(tables, joint[name], strict=True):
                try:
                    want = ESTIMATORS[name](tbl)
                except ESTIMATOR_FAILURES as exc:
                    want = exc
                assert_same_outcome(got, want)
        outcomes = [o for column in joint.values() for o in column]
        assert any(isinstance(o, NoAdmissibleModelError) for o in outcomes)
        assert any(type(o) is ValueError for o in outcomes)

    def test_estimator_order_changes_no_outcome(self):
        tables = mixed_tables()
        forward = _estimate_batch(("nof1", "breakaway"), tables)
        backward = _estimate_batch(("breakaway", "nof1"), tables)
        for name in ("nof1", "breakaway"):
            for got, want in zip(backward[name], forward[name], strict=True):
                assert_same_outcome(got, want)

    def test_stub_called_per_table_while_breakaway_batches(self, monkeypatch):
        tables = mixed_tables()
        alone = _estimate_batch(("breakaway",), tables)["breakaway"]
        calls, batch_sizes = [], []

        def stub(tbl):
            calls.append(tbl)
            return RichnessEstimate("nof1", 1.0, 0.0, 1.0, 0.0, None, [])

        select = estimators._select_batch

        def spy(batch, require_f1):
            batch_sizes.append(len(batch))
            assert require_f1 == [False] * len(batch)
            return select(batch, require_f1)

        monkeypatch.setitem(ESTIMATORS, "nof1", stub)
        monkeypatch.setattr(estimators, "_select_batch", spy)
        joint = _estimate_batch(("nof1", "breakaway"), tables)
        assert calls == tables
        assert all(o.C_hat == 1.0 for o in joint["nof1"])
        # one selection over every table with a breakaway ratio series
        with_series = 0
        for tbl in tables:
            try:
                estimators._breakaway_series(tbl)
                with_series += 1
            except ESTIMATOR_FAILURES:
                pass
        assert batch_sizes == [with_series] and with_series < len(tables)
        for got, want in zip(joint["breakaway"], alone, strict=True):
            assert_same_outcome(got, want)

    def test_selection_time_split_by_series_contributed(self, monkeypatch):
        # the last table has no singletons, so breakaway contributes one
        # series fewer than nof1 to the joint selection
        tables = [mixed_tables()[0], mixed_tables()[-1]]
        select = estimators._select_batch

        def slow(batch, require_f1):
            time.sleep(0.3)
            return select(batch, require_f1)

        monkeypatch.setattr(estimators, "_select_batch", slow)
        seconds: dict[str, float] = {}
        start = time.perf_counter()
        _estimate_batch(("nof1", "breakaway", "chao1"), tables, seconds)
        elapsed = time.perf_counter() - start
        assert list(seconds) == ["nof1", "breakaway", "chao1"]
        assert seconds["nof1"] >= 0.2 and 0.1 <= seconds["breakaway"] < seconds["nof1"]
        assert 0.0 <= seconds["chao1"] < 0.1
        assert sum(seconds.values()) <= elapsed


class TestFCritical:
    def test_equals_scipy_stats_quantile(self):
        for dfn in range(1, 9):
            for dfd in (*range(1, 60), 100, 257, 1000, 2999):
                assert _f_critical(dfn, dfd) == float(stats.f.ppf(1.0 - GROWTH_ALPHA, dfn, dfd))

    def test_package_import_leaves_scipy_stats_unloaded(self):
        code = "import sys, ratiorich, ratiorich.cli; print('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(ratiorich.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"


class TestBreakaway:
    def test_exact_geometric(self):
        t = table({1: 128, 2: 64, 3: 32, 4: 16, 5: 8})
        est = breakaway(t)
        assert est.f0_hat == pytest.approx(256.0, abs=1e-6)
        assert est.C_hat == pytest.approx(504.0, abs=1e-6)
        assert (est.model.p, est.model.q) == (1, 0)
        assert est.f1_hat is None

    def test_exact_geometric_se_closed_form(self):
        # with zero coefficient covariance the delta-method variance reduces
        # to f1(C-f1)/(C b0^2) + c f0/C - 2 f0 c / C; for this table = 256
        t = table({1: 128, 2: 64, 3: 32, 4: 16, 5: 8})
        est = breakaway(t)
        f1, c, f0, beta0 = 128, 248, 256.0, 0.5
        c_hat = f0 + c
        var = f1 * (c_hat - f1) / (c_hat * beta0**2) + c * f0 / c_hat - 2 * f0 * c / c_hat
        assert est.se == pytest.approx(math.sqrt(var), abs=1e-6)
        assert est.se == pytest.approx(16.0, abs=1e-6)

    def test_missing_singletons_rejected_with_hint(self):
        with pytest.raises(ValueError, match="breakaway_nof1"):
            breakaway(table({2: 64, 3: 32, 4: 16, 5: 8}))

    def test_scaling_table_scales_prediction(self):
        t = table({1: 128, 2: 64, 3: 32, 4: 16, 5: 8})
        base = breakaway(t)
        scaled = breakaway(table({j: 10 * f for j, f in t.entries}))
        assert scaled.f0_hat == pytest.approx(10 * base.f0_hat, rel=1e-6)
        assert scaled.C_hat == pytest.approx(10 * base.C_hat, rel=1e-6)


class TestBreakawayNof1:
    def test_exact_geometric(self):
        t = table({2: 64, 3: 32, 4: 16, 5: 8, 6: 4})
        est = breakaway_nof1(t)
        assert est.f1_hat == pytest.approx(128.0, abs=1e-6)
        assert est.f0_hat == pytest.approx(256.0, abs=1e-6)
        assert est.C_hat == pytest.approx(508.0, abs=1e-6)
        assert (est.model.p, est.model.q) == (1, 0)

    def test_stored_singletons_ignored(self):
        base = breakaway_nof1(table({2: 64, 3: 32, 4: 16, 5: 8, 6: 4}))
        spiked = breakaway_nof1(table({1: 999, 2: 64, 3: 32, 4: 16, 5: 8, 6: 4}))
        assert spiked.C_hat == pytest.approx(base.C_hat, abs=1e-12)
        assert spiked.se == pytest.approx(base.se, abs=1e-12)

    def test_missing_doubletons_rejected(self):
        with pytest.raises(ValueError, match="f_2"):
            breakaway_nof1(table({1: 10, 3: 2, 4: 1, 5: 1, 6: 1}))

    def test_singleton_invariance_randomized(self):
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(100):
            t = random_contiguous_table(rng, j_start=2, min_points=4)
            f1 = int(rng.integers(1, 2000))
            with_f1 = FrequencyCountTable.from_counts({**t.counts, 1: f1})
            try:
                base = breakaway_nof1(t)
            except (NoAdmissibleModelError, ValueError):
                with pytest.raises((NoAdmissibleModelError, ValueError)):
                    breakaway_nof1(with_f1)
                continue
            spiked = breakaway_nof1(with_f1)
            assert spiked.C_hat == pytest.approx(base.C_hat, abs=1e-9)
            assert spiked.se == pytest.approx(base.se, abs=1e-9)
            checked += 1
        assert checked >= 50

    def test_scale_equivariance(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(40):
            t = random_contiguous_table(rng, j_start=2, min_points=5)
            try:
                base = breakaway_nof1(t)
            except (NoAdmissibleModelError, ValueError):
                continue
            for k in (2, 5, 10):
                scaled_t = FrequencyCountTable.from_counts({j: k * f for j, f in t.entries})
                try:
                    scaled = breakaway_nof1(scaled_t)
                except (NoAdmissibleModelError, ValueError):
                    # selection is scale-invariant, so this must not happen
                    raise AssertionError("scaled table failed where base succeeded")
                # tolerance relative to the estimate's overall scale: near-zero
                # predicted components are only pinned to optimizer precision
                tol = 1e-6 * k * base.C_hat
                assert abs(scaled.f0_hat - k * base.f0_hat) <= 1e-4 * k * base.f0_hat + tol
                assert abs(scaled.f1_hat - k * base.f1_hat) <= 1e-4 * k * base.f1_hat + tol
                assert scaled.C_hat == pytest.approx(k * base.C_hat, rel=1e-5)
            checked += 1
        assert checked >= 10

    def test_accepted_estimates_positive_and_bounded_below(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = random_contiguous_table(rng, j_start=2, min_points=4)
            try:
                est = breakaway_nof1(t)
            except (NoAdmissibleModelError, ValueError):
                continue
            n = sum(f for j, f in t.entries if j >= 2)
            assert est.f0_hat > 0
            assert est.f1_hat > 0
            assert est.C_hat >= n
            assert est.se >= 0


class TestNof1StandardError:
    def test_hand_evaluated_plugin_oracle(self):
        # f2=100, beta0=b=0.5, n=600, zero coefficient covariance:
        # f1=200, f0=400, C=1200; the six terms are 1466.67, 733.33, 366.67,
        # 300, -200, -100 and the 3x3 sum is 3000
        fit = synthetic_fit((0.5, 0.0))
        t = table({2: 100, 3: 500})
        se = nof1_standard_error(fit, t, f0_hat=400.0, f1_hat=200.0)
        assert se == pytest.approx(math.sqrt(3000.0), abs=1e-9)

    def test_degenerate_single_class_table(self):
        # with f2 equal to the whole of C the multinomial terms vanish
        fit = synthetic_fit((0.5, 0.0))
        t = table({2: 100})
        se = nof1_standard_error(fit, t, f0_hat=0.0, f1_hat=0.0)
        assert se == 0.0

    def test_negative_variance_clamped_with_warning(self):
        # with zero coefficient covariance the total is negative exactly when
        # f0 + f1 < f2; beta0 = 2, b = 3 gives f1 = 100/3, f0 = 100/6
        fit = synthetic_fit((2.0, 1.0))
        t = table({2: 100, 3: 500})
        with pytest.warns(UserWarning, match="clamped"):
            se = nof1_standard_error(fit, t, f0_hat=100 / 6, f1_hat=100 / 3)
        assert se == 0.0


class TestChao1:
    def test_direct_formula(self):
        est = chao1(table({1: 10, 2: 5, 3: 2}))
        assert est.C_hat == 27.0
        assert est.f0_hat == 10.0
        assert est.model is None
        var = 5 * (2.0**4 / 4 + 2.0**3 + 2.0**2 / 2)
        assert est.se == pytest.approx(math.sqrt(var))

    def test_no_singletons(self):
        est = chao1(table({2: 5, 3: 2}))
        assert est.C_hat == 7.0
        assert est.se == 0.0

    def test_bias_corrected_branch(self):
        est = chao1(table({1: 4}))
        assert est.C_hat == 10.0
        assert est.f0_hat == 6.0

    def test_never_below_observed(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = random_contiguous_table(rng, j_start=1, min_points=2)
            est = chao1(t)
            assert est.C_hat >= observed_richness(t)
            assert est.se >= 0
