import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg._umath_linalg import inv, qr_r_raw, qr_reduced, solve1
from scipy.linalg import lapack

from ratiorich import ratiofit
from ratiorich.freqtab import InsufficientDataError
from ratiorich.estimators import LADDER, NoAdmissibleModelError, _select_batch, select_model
from ratiorich.ratiofit import (
    REWEIGHT_PASSES,
    FitResult,
    RankDeficiencyError,
    RationalModel,
    RatioSeries,
    build_ratio_series,
    derived_quantities,
    eval_model,
    fit_wnls,
)
from ratiorich.ratiofit import (
    _design_matrices,
    _fit_batch,
    _model_and_jacobian,
    _variable_projection,
)
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
    return RatioSeries(j=j, ratio=r, count_lo=lo, count_hi=hi)


class TestBuildRatioSeries:
    def test_ratio_definition(self):
        s = build_ratio_series(table({2: 64, 3: 32, 4: 16, 5: 8, 6: 4}), 2)
        assert list(s.j) == [2, 3, 4, 5]
        assert np.allclose(s.ratio, 0.5)

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

    def test_reads_each_count_once(self, monkeypatch):
        t = table({1: 40, 2: 30, 3: 20, 4: 12, 5: 7, 6: 3, 7: 1, 9: 1})
        get = type(t).get
        calls = []
        monkeypatch.setattr(type(t), "get", lambda self, j: calls.append(j) or get(self, j))
        s = build_ratio_series(t, 2)
        assert calls == [2, 3, 4, 5, 6, 7]
        assert len(calls) == len(s) + 1
        assert list(s.count_lo) == [30, 20, 12, 7, 3]
        assert list(s.count_hi) == [20, 12, 7, 3, 1]


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

    def test_scalar_input_returns_float(self):
        assert type(eval_model(RationalModel((0.2, 0.1), (0.3,)), 2.0)) is float
        assert type(eval_model(RationalModel((0.2, 0.1)), np.float64(2.0))) is float


class TestPolyval:
    # numpy's polyval is the reference: the helper must give its values bit for bit
    @pytest.mark.parametrize("degree", range(5))
    def test_equals_numpy_polyval(self, degree):
        polyval = np.polynomial.polynomial.polyval
        rng = np.random.default_rng(2300 + degree)
        grids = (
            np.arange(0.0, 40.0),
            np.arange(-25.0, 26.0),
            np.arange(-6, 7),
            np.array([0.0, -0.0, -1.0, 3.0, np.inf, -np.inf, np.nan]),
            np.array(7.0),
            np.array(-np.inf),
        )
        for _ in range(20):
            coefficients = tuple(rng.normal(scale=10.0, size=degree + 1))
            for grid in grids:
                with np.errstate(invalid="ignore"):  # inf * 0 is nan on both sides
                    ours = ratiofit._polyval(grid, coefficients)
                    theirs = polyval(grid, np.array(coefficients))
                assert np.shape(ours) == np.shape(theirs)
                assert np.array_equal(ours, theirs, equal_nan=True)

    def test_eval_model_matches_numpy_polyval_ratio(self):
        polyval = np.polynomial.polynomial.polyval
        model = RationalModel((0.3, -0.02, 1e-3), (0.05, -1e-3))
        j = np.arange(1.0, 30.0)
        expected = polyval(j, np.array(model.beta)) / polyval(j, np.array((1.0,) + model.alpha))
        assert np.array_equal(eval_model(model, j), expected)
        assert eval_model(model, 4.0) == float(expected[3])


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
        for s, selected in zip(series, _select_batch(series, [require_f1] * len(series))):
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


class TestStackedLapack:
    """The kernel's stacked gufuncs give scipy's per-matrix LAPACK results, bit for bit.

    A numpy that renames these private gufuncs, or builds them on a LAPACK
    with other bits, fails here before any fit changes silently. inv is
    checked up to 5x5 only: on the standard-normal stacks of its test, 75,
    149 and 241 of 400 inverses differ from dgesv's in the last bits at 6x6,
    7x7 and 8x8, the sizes of rungs (3,2) and (4,3).
    """

    @pytest.mark.parametrize("cols", [2, 3, 4, 5, 6])
    def test_qr_and_q_equal_dgeqrf_and_dorgqr(self, cols):
        rng = np.random.default_rng(cols)
        for rows in range(8, 65, 8):
            stack = rng.standard_normal((5, rows, cols)) * np.exp(3 * rng.standard_normal(cols))
            factored = stack.copy()
            tau = qr_r_raw(factored)
            q = qr_reduced(factored, tau)
            for i, a in enumerate(stack):
                ref, ref_tau, _, info = lapack.dgeqrf(a)
                assert info == 0
                assert np.array_equal(factored[i], ref)
                assert np.array_equal(tau[i], ref_tau)
                assert np.array_equal(q[i], lapack.dorgqr(ref, ref_tau)[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_solve1_equals_dgesv(self, n):
        rng = np.random.default_rng(10 + n)
        lhs, rhs = rng.standard_normal((200, n, n)), rng.standard_normal((200, n))
        x = solve1(lhs, rhs)
        for i in range(len(lhs)):
            assert np.array_equal(x[i], lapack.dgesv(lhs[i], rhs[i])[2])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_solve1_on_triangle_equals_dtrtrs(self, n):
        rng = np.random.default_rng(20 + n)
        upper, rhs = np.triu(rng.standard_normal((200, n, n))), rng.standard_normal((200, n))
        x = solve1(upper, rhs)
        for i in range(len(upper)):
            assert np.array_equal(x[i], lapack.dtrtrs(upper[i], rhs[i])[0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inv_equals_dgesv_on_the_identity(self, n):
        rng = np.random.default_rng(30 + n)
        stack = rng.standard_normal((400, n, n))
        x = inv(stack)
        for i in range(len(stack)):
            assert np.array_equal(x[i], lapack.dgesv(stack[i], np.eye(n))[2])

    def test_inv_of_an_exactly_singular_matrix_is_nan_in_that_matrix_only(self):
        stack = np.random.default_rng(40).standard_normal((5, 4, 4))
        stack[2, :, 1] = 0.0
        with np.errstate(all="ignore"):
            x = inv(stack)
        assert np.isnan(x[2]).all()
        for i in (0, 1, 3, 4):
            assert np.array_equal(x[i], inv(stack[i])), i


def _digest_series():
    """Table-1, long-tailed and short series of both kinds, seeded: several padded lengths."""
    out = []
    populations = [(5000, 500, 0.99)] * 8 + [(3000, 1, 0.7), (20000, 10, 0.5), (400, 2, 0.8)] * 2
    for i, (C, size, prob) in enumerate(populations):
        tbl = truncate_to_observed(sample_nb_counts(C, size, prob, replicate_rng(1313, i)))
        for j_min in (1, 2):
            try:
                out.append(build_ratio_series(tbl, j_min))
            except ValueError:
                pass
    return out


def _feed(h, fit, p, q):
    """Hash one fit: every field the kernel computes, and cov where its solve is pinned."""
    if isinstance(fit, Exception):
        h.update(f"{type(fit).__name__}: {fit}".encode())
        return
    parts = [fit.model.coefficient_vector(), fit.residuals, fit.weights]
    parts.append(np.array([fit.weighted_sse, fit.iterations, fit.converged], dtype=float))
    if fit.chart is not None:
        parts += [fit.chart.numerator, fit.chart.denominator]
    if (p, q) in ((1, 0), (2, 1)):
        parts.append(fit.cov)
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())


def _platform_bits(series):
    """Hash of the digest's inputs and of the kernel's numpy and LAPACK calls on fixed operands.

    The fit digest is comparable only where this equals the value recorded
    beside it: another sampler, BLAS or LAPACK build gives other bits.
    """
    h = hashlib.sha256()
    for s in series:
        for part in (s.j, s.ratio, s.count_lo, s.count_hi):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
    rng = np.random.default_rng(1313)
    tall, square = rng.random((6, 24, 5)) - 0.5, rng.random((6, 5, 5)) - 0.5
    factored = tall.copy()
    tau = qr_r_raw(factored)
    for out in (
        np.matmul(tall, square), np.matmul(tall.transpose(0, 2, 1), tall),
        np.sqrt(np.add.reduce(tall**2, axis=1)), factored, tau, qr_reduced(factored, tau),
        solve1(square, tall[:, 0]), inv(square),
    ):
        h.update(out.tobytes())
    return h.hexdigest()


class TestAcceptedFits:
    """The kernel's accepted fits, pinned by one digest over seeded series on all four rungs.

    The golden CLI files round to --precision and the batch-independence
    tests compare the kernel with itself, so only a stored digest catches a
    change that moves fits in their last bits. cov is pinned for (1,0) and
    (2,1) only: their 2x2 and 4x4 inverses are the bits TestStackedLapack
    checks against scipy, while the 6x6 and 8x8 ones depend on the LAPACK
    build.
    """

    PLATFORM = "95701d7baea09e2629019cb319750e5d3e014a6650c3b2bc067553d685e8f90b"
    DIGEST = "9ce366b6b69a85d2b18b3c1d9e8e24d28fd0240e86a58366e55f04d5ff6b6236"

    def test_fits_match_the_recorded_digest(self):
        series = _digest_series()
        if _platform_bits(series) != self.PLATFORM:
            pytest.skip("numpy, BLAS or LAPACK bits differ from those the digest was recorded on")
        h = hashlib.sha256()
        for p, q in LADDER:
            eligible = [s for s in series if len(s) >= p + q + 2]
            h.update(f"({p},{q}) {len(eligible)}".encode())
            for s, batched in zip(eligible, _fit_batch(eligible, p, q), strict=True):
                _feed(h, batched, p, q)
                _feed(h, _fit_or_error(s, p, q), p, q)
        assert h.hexdigest() == self.DIGEST


class TestKernelSingularRows:
    """Series that cannot start or cannot step leave the rest of the batch untouched."""

    @staticmethod
    def batch():
        rng = np.random.default_rng(7)
        j = np.tile(np.arange(1.0, 17.0), (6, 1))
        vn, vd = _design_matrices(j, 2, 1)
        r = (2.0 + 0.5 * j) / (1.0 + 0.3 * j) * np.exp(0.05 * rng.standard_normal(j.shape))
        w = rng.uniform(1.0, 50.0, j.shape)
        d = np.tile([1.0, 0.0], (6, 1))
        d[2] = np.array([5.0, -1.0]) / np.hypot(5.0, 1.0)  # D(5) = 0: cannot start
        r[4] = 0.0  # every fitted value vanishes: a singular Newton system
        return d, vn, vd, r, w

    def test_singular_series_are_flagged_and_the_others_fit_as_alone(self):
        d, vn, vd, r, w = self.batch()
        with np.errstate(all="ignore"):
            together = _variable_projection(d, vn, vd, r, w)
            alone = [
                _variable_projection(*(a[i : i + 1] for a in (d, vn, vd, r, w)))
                for i in range(len(d))
            ]
        _, _, iterations, converged, singular = together
        assert singular.tolist() == [False, False, True, False, True, False]
        assert (iterations[2], iterations[4]) == (0, 1)  # never stepped; its first solve failed
        for i, one in enumerate(alone):
            assert bool(one[4][0]) == singular[i]
            if not singular[i]:
                assert converged[i] and iterations[i] > 1
                for got, want in zip(together, one):
                    assert np.array_equal(got[i], want[0])

    def test_series_singular_in_a_later_pass_fails_alone(self, monkeypatch):
        series = TestBatchedFit.mixed_series()[:6]
        assert {-(-len(s) // 8) for s in series} == {2}  # one padded group
        kernel, passes = ratiofit._variable_projection, []

        def singular_on_pass_2(*arrays):
            out = kernel(*arrays)
            passes.append(out)
            if len(passes) == 2:
                out[4][2] = True
            return out

        with monkeypatch.context() as patch:
            patch.setattr(ratiofit, "_variable_projection", singular_on_pass_2)
            fits = _fit_batch(series, 2, 1)
        assert len(passes) == REWEIGHT_PASSES
        assert type(fits[2]) is RankDeficiencyError
        assert str(fits[2]) == "singular normal equations"
        for i, s in enumerate(series):
            if i != 2:
                alone = _fit_or_error(s, 2, 1)
                assert isinstance(alone, FitResult)
                assert_same_fit(alone, fits[i])


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

    @pytest.mark.parametrize("side", [0, 1], ids=["count_lo", "count_hi"])
    @pytest.mark.parametrize(
        "bad", [0.0, -3.0, np.inf, np.nan], ids=["zero", "negative", "inf", "nan"]
    )
    def test_rejects_bad_counts(self, bad, side):
        # a zero count would give its point weight 0 yet still count toward
        # the degrees of freedom; a negative one makes the normal equations singular
        counts = [(2.0, 1.0)] * 4
        counts[1] = (bad, 1.0) if side == 0 else (2.0, bad)
        points = [(2, 0.5), (3, 0.5), (4, 0.5), (5, 0.5)]
        with pytest.raises(ValueError, match="counts"):
            series_from_points(points, counts)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite_ratio(self, bad):
        with pytest.raises(ValueError, match="finite"):
            series_from_points([(2, 0.5), (3, bad), (4, 0.5), (5, 0.5)])

    def test_rejects_decreasing_j(self):
        with pytest.raises(ValueError, match="increasing"):
            series_from_points([(3, 0.5), (2, 0.5)])
