import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratiorich.freqtab import InsufficientDataError
from ratiorich.estimators import NoAdmissibleModelError, _select_batch, select_model
from ratiorich.ratiofit import (
    RankDeficiencyError,
    RationalModel,
    RatioSeries,
    build_ratio_series,
    derived_quantities,
    eval_model,
    fit_wnls,
)
from ratiorich.ratiofit import _design_matrices, _fit_batch, _model_and_jacobian
from ratiorich.simlab import replicate_rng, sample_nb_counts, truncate_to_observed

from helpers import (
    finite_difference_gradient,
    projective_coordinates,
    random_bounded_model,
    random_contiguous_table,
    table,
)


def series_from_points(points, counts=None):
    """RatioSeries from raw (j, r) pairs; backing counts default to 1."""
    j = np.array([p[0] for p in points])
    r = np.array([p[1] for p in points])
    ones = np.ones_like(r)
    if counts is None:
        lo = hi = ones
    else:
        lo = np.array([c[0] for c in counts], dtype=float)
        hi = np.array([c[1] for c in counts], dtype=float)
    return RatioSeries(j=j, ratio=r, weight=ones, count_lo=lo, count_hi=hi)


class TestBuildRatioSeries:
    def test_ratio_definition(self):
        s = build_ratio_series(table({2: 64, 3: 32, 4: 16, 5: 8, 6: 4}), 2)
        assert list(s.j) == [2, 3, 4, 5]
        assert np.allclose(s.ratio, 0.5)
        assert np.all(s.weight == 1.0)

    def test_from_singletons(self):
        s = build_ratio_series(
            table({1: 10, 2: 5, 3: 2, 4: 1, 5: 1}), 1
        )
        assert list(s.j) == [1, 2, 3, 4]
        assert s.ratio[0] == pytest.approx(0.5)
        assert s.ratio[1] == pytest.approx(0.4)

    def test_gap_propagates_insufficient(self):
        with pytest.raises(InsufficientDataError):
            build_ratio_series(table({2: 5, 4: 3}), 2)


class TestEvalModel:
    def test_polynomial(self):
        assert eval_model(RationalModel((0.2, 0.1)), 2.0) == pytest.approx(0.4)

    def test_rational(self):
        assert eval_model(RationalModel((0.2, 0.2), (1.0,)), 2.0) == pytest.approx(0.2)

    def test_constant(self):
        for j in (0.0, 1.0, 17.5):
            assert eval_model(RationalModel((0.5,)), j) == pytest.approx(0.5)

    def test_vanishing_denominator(self):
        with pytest.raises(ZeroDivisionError):
            eval_model(RationalModel((1.0,), (-0.5,)), 2.0)

    def test_array_input(self):
        out = eval_model(RationalModel((0.2, 0.1)), np.array([1.0, 2.0]))
        assert np.allclose(out, [0.3, 0.4])


class TestFitWnls:
    def test_exact_line_any_weighting(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)])
        fit = fit_wnls(s, 1, 0)
        assert fit.converged
        assert fit.model.beta[0] == pytest.approx(0.5, abs=1e-9)
        assert fit.model.beta[1] == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)
        assert fit.weighted_sse == pytest.approx(0.0, abs=1e-20)

    def test_constant_model_is_weighted_mean(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)])
        fit = fit_wnls(s, 0, 0)
        assert fit.model.beta[0] == pytest.approx(0.5, abs=1e-12)

    def test_dof_precondition(self):
        s = series_from_points([(2, 0.4), (3, 0.5), (4, 0.6)])
        with pytest.raises(ValueError, match="at least"):
            fit_wnls(s, 1, 1)

    def test_negative_degrees_rejected(self):
        s = series_from_points([(2, 0.4), (3, 0.5), (4, 0.6)])
        with pytest.raises(ValueError):
            fit_wnls(s, -1, 0)

    def test_cov_symmetric_nonnegative_diagonal(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_contiguous_table(rng, j_start=1, min_points=5)
            s = build_ratio_series(t, 1)
            fit = fit_wnls(s, 1, 0)
            assert np.allclose(fit.cov, fit.cov.T, atol=1e-10 * max(1.0, np.abs(fit.cov).max()))
            assert np.all(np.diag(fit.cov) >= 0.0)

    def test_weighted_sse_not_worse_than_polynomial_start(self):
        # the returned optimum, under its final weights, beats the plain
        # polynomial starting point evaluated under those same weights
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = random_contiguous_table(rng, j_start=2, min_points=6)
            s = build_ratio_series(t, 2)
            fit = fit_wnls(s, 2, 1)
            j = s.j.astype(float)
            vn, vd = _design_matrices(j, 2, 1)
            numerator = np.zeros(3)
            coef = np.polynomial.Polynomial.fit(j, s.ratio, deg=2).convert().coef
            numerator[: coef.size] = coef
            m0, _, _ = _model_and_jacobian(numerator, np.array([1.0, 0.0]), vn, vd)
            sse0 = float(np.sum(fit.weights * (s.ratio - m0) ** 2))
            assert fit.weighted_sse <= sse0 + 1e-9

    def test_criterion_7_fixture_fit_beats_the_ridge_stop(self):
        # replicate 0 of the criterion-7 population once stopped on the flat
        # large-coefficient ridge at the coefficients below; the optimum of
        # the (2,1) fit lies well inside, with a lower weighted SSE
        draw = sample_nb_counts(5000, 500, 0.99, replicate_rng(20260809, 0))
        s = build_ratio_series(truncate_to_observed(draw), 2)
        fit = fit_wnls(s, 2, 1)
        assert np.all(np.isfinite(fit.model.coefficient_vector()))
        ridge = RationalModel((9.68860649e11, 1.91639441e11, -9.42673258e9), (4.02157813e11,))
        ridge_sse = float(np.sum(fit.weights * (s.ratio - eval_model(ridge, s.j)) ** 2))
        assert fit.weighted_sse < ridge_sse

    def test_scale_invariance_of_coefficients_and_cov(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            t = random_contiguous_table(rng, j_start=2, min_points=5)
            base = fit_wnls(build_ratio_series(t, 2), 1, 0)
            for k in (2, 5, 10):
                scaled = type(t).from_counts({j: k * f for j, f in t.entries})
                fit_k = fit_wnls(build_ratio_series(scaled, 2), 1, 0)
                assert np.allclose(
                    fit_k.model.coefficient_vector(),
                    base.model.coefficient_vector(),
                    rtol=1e-6,
                    atol=1e-9,
                )
                assert np.allclose(fit_k.cov, base.cov, rtol=1e-5, atol=1e-12)


def _fit_or_error(series, p, q):
    try:
        return fit_wnls(series, p, q)
    except RankDeficiencyError as exc:
        return exc


def assert_same_fit(a, b):
    """Every FitResult field equal bit for bit, or the same error."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert type(a) is type(b) and str(a) == str(b)
        return
    assert np.array_equal(a.model.coefficient_vector(), b.model.coefficient_vector())
    assert (a.model.p, a.model.q) == (b.model.p, b.model.q)
    for name in ("cov", "residuals", "converged", "iterations", "weighted_sse", "weights"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.chart is None) == (b.chart is None)
    if a.chart is not None:
        for x, y in zip(a.chart, b.chart):
            assert np.array_equal(x, y)


class TestBatchedFit:
    @staticmethod
    def mixed_series():
        """Table-1 series of both kinds, plus short and long-tailed ones: several padded lengths."""
        out = []
        populations = [(5000, 500, 0.99)] * 6 + [(3000, 1, 0.7), (20000, 10, 0.5)] * 2
        for i, (C, size, prob) in enumerate(populations):
            tbl = truncate_to_observed(sample_nb_counts(C, size, prob, replicate_rng(404, i)))
            for j_min in (1, 2):
                try:
                    out.append(build_ratio_series(tbl, j_min))
                except ValueError:
                    pass
        return out

    @pytest.mark.parametrize("p, q", [(1, 0), (2, 1), (4, 3)])
    def test_fit_is_bitwise_independent_of_its_batch(self, p, q):
        series = [s for s in self.mixed_series() if len(s) >= p + q + 2]
        assert len({-(-len(s) // 8) for s in series}) >= 2
        for s, in_batch in zip(series, _fit_batch(series, p, q)):
            assert_same_fit(_fit_or_error(s, p, q), in_batch)
        # and in the reverse order
        for s, in_batch in zip(series[::-1], _fit_batch(series[::-1], p, q)):
            assert_same_fit(_fit_or_error(s, p, q), in_batch)

    @pytest.mark.parametrize("require_f1", [False, True])
    def test_selection_is_independent_of_its_batch(self, require_f1):
        series = self.mixed_series()
        for s, selected in zip(series, _select_batch(series, require_f1)):
            try:
                alone = select_model(s, require_f1)
            except NoAdmissibleModelError as exc:
                assert isinstance(selected, NoAdmissibleModelError)
                assert selected.trace.tried == exc.trace.tried
                continue
            assert selected[1].tried == alone[1].tried
            assert_same_fit(alone[0], selected[0])

    def test_batch_needs_enough_points_in_every_series(self):
        short = series_from_points([(2, 0.4), (3, 0.5), (4, 0.6)])
        with pytest.raises(ValueError, match="at least"):
            _fit_batch([self.mixed_series()[0], short], 1, 1)


def _pool():
    """Table-1 and long-tailed series of both kinds, each long enough for rung (4,3)."""
    out = []
    populations = [(5000, 500, 0.99)] * 12 + [(3000, 1, 0.7), (20000, 10, 0.5)] * 3
    for i, (C, size, prob) in enumerate(populations):
        tbl = truncate_to_observed(sample_nb_counts(C, size, prob, replicate_rng(606, i)))
        for j_min in (1, 2):
            try:
                series = build_ratio_series(tbl, j_min)
            except ValueError:
                continue
            if len(series) >= 9:
                out.append(series)
    return out


_POOL = _pool()
_PROPERTY_RUNGS = ((2, 1), (4, 3))


@pytest.fixture(scope="module")
def alone_fits():
    return {(p, q): [_fit_or_error(s, p, q) for s in _POOL] for p, q in _PROPERTY_RUNGS}


class TestBatchIndependenceProperty:
    """Any draw from a fixed pool, in any order and with repeats, fits as each series alone.

    Batches of several series hold series that stopped early frozen beside the
    ones still stepping, before and after the held arrays are compacted.
    """

    def test_pool_is_large_and_mixed(self):
        assert len(_POOL) >= 24
        assert len({-(-len(s) // 8) for s in _POOL}) >= 2

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(draw=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=20))
    def test_any_batch_fits_each_series_as_alone(self, alone_fits, draw):
        for p, q in _PROPERTY_RUNGS:
            fits = _fit_batch([_POOL[i] for i in draw], p, q)
            for i, fit in zip(draw, fits, strict=True):
                assert_same_fit(alone_fits[p, q][i], fit)


class TestJacobian:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            model, j = random_bounded_model(rng)
            numerator, denominator = projective_coordinates(model)
            vn, vd = _design_matrices(np.array([j]), model.p, model.q)
            _, jac, _ = _model_and_jacobian(numerator, denominator, vn, vd)
            fd = finite_difference_gradient(numerator, denominator, j)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.all(np.abs(jac[0] - fd) / scale <= 1e-4)


class TestDerivedQuantities:
    def test_zero_covariance(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)])
        fit = fit_wnls(s, 1, 0)
        dq = derived_quantities(fit)
        assert dq.b_hat == pytest.approx(0.5, abs=1e-9)
        assert dq.var_b == pytest.approx(0.0, abs=1e-18)
        assert dq.cov_b_beta0 == pytest.approx(0.0, abs=1e-18)

    def test_hand_gradient_identity_cov(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)])
        fit = fit_wnls(s, 1, 0)
        fit.model = RationalModel((0.2, 0.3))
        fit.cov = np.eye(2)
        dq = derived_quantities(fit)
        assert dq.beta0_hat == pytest.approx(0.2)
        assert dq.b_hat == pytest.approx(0.5)
        assert dq.var_b == pytest.approx(2.0)  # gradient is (1, 1)
        assert dq.cov_b_beta0 == pytest.approx(1.0)

    def test_rational_formula(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5), (6, 0.5)])
        fit = fit_wnls(s, 1, 0)
        fit.model = RationalModel((0.2, 0.2), (1.0,))
        fit.cov = np.zeros((3, 3))
        dq = derived_quantities(fit)
        assert dq.b_hat == pytest.approx(0.2)

    def test_requires_convergence(self):
        s = series_from_points([(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)])
        fit = fit_wnls(s, 1, 0)
        fit.converged = False
        with pytest.raises(ValueError, match="converged"):
            derived_quantities(fit)


class TestRatioSeriesValidation:
    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError, match="positive"):
            series_from_points([(2, 0.5), (3, -0.1), (4, 0.5), (5, 0.5)])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weights"):
            RatioSeries(
                j=np.array([2, 3]),
                ratio=np.array([0.5, 0.5]),
                weight=np.array([1.0, np.inf]),
                count_lo=np.ones(2),
                count_hi=np.ones(2),
            )

    def test_rejects_decreasing_j(self):
        with pytest.raises(ValueError, match="increasing"):
            series_from_points([(3, 0.5), (2, 0.5)])
