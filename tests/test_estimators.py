import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import ratiorich
from ratiorich import estimators
from ratiorich.estimators import (
    ESTIMATOR_FAILURES,
    ESTIMATORS,
    GROWTH_ALPHA,
    LADDER,
    NoAdmissibleModelError,
    RichnessEstimate,
    _estimate_batch,
    _f_tail,
    breakaway,
    breakaway_nof1,
    chao1,
    nof1_standard_error,
    select_model,
)
from ratiorich.freqtab import (
    FrequencyCountTable,
    InsufficientDataError,
    observed_richness,
    serialize_frequency_table,
)
from ratiorich.ratiofit import (
    FitResult,
    RankDeficiencyError,
    RationalModel,
    build_ratio_series,
    derived_quantities,
)
from ratiorich.simlab import (
    SimulationConfig,
    apply_chimeric_inflation,
    replicate_rng,
    run_replications,
    sample_nb_counts,
    truncate_to_observed,
)

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


def walk_fit(sse, p, q, beta=None, alpha=None, converged=True, points=12):
    """A hand-built fit of rung (p, q), or of the given coefficients, with a chosen weighted SSE."""
    model = RationalModel(beta or (0.5,) + (0.0,) * p, alpha or (0.0,) * q)
    k = model.n_coef
    return FitResult(
        model=model,
        cov=np.zeros((k, k)),
        residuals=np.zeros(points),
        converged=converged,
        iterations=1,
        weighted_sse=sse,
        weights=np.ones(points),
    )


SINGULAR = RankDeficiencyError("singular system")
# Each case: series length, the stub's fit per rung (an SSE for a plain
# admissible fit), and the expected outcome per rung.
F_WALK_CASES = {
    "each larger rung supersedes": (
        12, {(1, 0): 10.0, (2, 1): 1.0, (3, 2): 0.1, (4, 3): 0.01},
        ["superseded", "superseded", "superseded", "accepted"],
    ),
    "perfect fit at (1,0) stops the walk": (
        12, {(1, 0): 1e-13, (2, 1): 0.0, (3, 2): 0.0, (4, 3): 0.0},
        ["accepted", "not-selected", "not-selected", "not-selected"],
    ),
    "a perfect candidate supersedes an imperfect choice": (
        12, {(1, 0): 1.0, (2, 1): 0.0, (3, 2): 0.0, (4, 3): 0.0},
        ["superseded", "accepted", "not-selected", "not-selected"],
    ),
    # (2,1) against (1,0) on 12 points has dfn = 2 and dfd = 8: its F tail is y^4
    "an F tail just below GROWTH_ALPHA supersedes (0.46^4 = 0.045)": (
        12, {(1, 0): 1.0, (2, 1): 0.46, (3, 2): 0.46, (4, 3): 0.46},
        ["superseded", "accepted", "not-selected", "not-selected"],
    ),
    "an F tail just above GROWTH_ALPHA does not (0.485^4 = 0.055)": (
        12, {(1, 0): 1.0, (2, 1): 0.485, (3, 2): 1.0, (4, 3): 1.0},
        ["accepted", "not-selected", "not-selected", "not-selected"],
    ),
    "no improvement in the SSE": (
        12, {(1, 0): 1.0, (2, 1): 1.0, (3, 2): 2.0, (4, 3): 1.0},
        ["accepted", "not-selected", "not-selected", "not-selected"],
    ),
    # on 40 points a worse (2,1) would pass the F test if its sign were lost
    "a worse SSE never replaces the choice": (
        40, {(1, 0): 1.0, (2, 1): 100.0, (3, 2): 1.0, (4, 3): 1.0},
        ["accepted", "not-selected", "not-selected", "not-selected"],
    ),
    # (3,2) is significant against (1,0) but not against (2,1)
    "an insignificant rung is skipped, and the next is tested against the choice": (
        12, {(1, 0): 10.0, (2, 1): 5.0, (3, 2): 2.0, (4, 3): 2.0},
        ["superseded", "not-selected", "accepted", "not-selected"],
    ),
    "inadmissible rungs keep their reasons": (
        12,
        {(1, 0): 10.0, (2, 1): walk_fit(0.5, 2, 1, beta=(-0.5, 0.0, 0.0)), (3, 2): 0.1,
         (4, 3): SINGULAR},
        ["superseded", "negative-f0", "accepted", "no-convergence"],
    ),
    # the ladder fits a rung only with a residual degree of freedom left, so
    # only a fit with more coefficients than its rung meets the dfd guard
    "no residual degree of freedom": (
        9,
        {(1, 0): 10.0, (2, 1): 1.0, (3, 2): 0.5, (4, 3): walk_fit(0.0, 4, 4, points=9)},
        ["superseded", "accepted", "not-selected", "not-selected"],
    ),
}


def walk_series(points):
    return series_from_points([(j, 0.5) for j in range(2, 2 + points)])


def stub_fit(rungs):
    def fit(batch, p, q):
        assert all(len(series) >= p + q + 2 for series in batch)
        return [rungs[p, q]] * len(batch)

    return fit


class TestFWalk:
    """The nested F walk through _select_batch, on hand-built fits."""

    @pytest.mark.parametrize("case", list(F_WALK_CASES))
    def test_outcomes(self, case):
        points, given, want = F_WALK_CASES[case]
        rungs = {
            (p, q): walk_fit(f, p, q, points=points) if isinstance(f, float) else f
            for (p, q), f in given.items()
        }
        (selected,) = estimators._select_batch([walk_series(points)], [False], stub_fit(rungs))
        fit, trace = selected
        assert trace.tried == [(p, q, outcome) for (p, q), outcome in zip(LADDER, want)]
        assert fit is rungs[trace.accepted]

    def test_no_admissible_rung_carries_the_full_trace(self):
        rungs = {
            (1, 0): walk_fit(1.0, 1, 0, beta=(0.5, -1.0), points=7),
            (2, 1): walk_fit(1.0, 2, 1, alpha=(-1.0,), points=7),
            (3, 2): walk_fit(1.0, 3, 2, converged=False, points=7),
        }
        (selected,) = estimators._select_batch([walk_series(7)], [True], stub_fit(rungs))
        assert isinstance(selected, NoAdmissibleModelError)
        assert str(selected) == "no admissible model on the ladder"
        assert selected.trace.tried == [
            (1, 0, "negative-f1"),
            (2, 1, "denominator-violation"),
            (3, 2, "no-convergence"),
            (4, 3, "insufficient-dof"),
        ]
        assert selected.trace.accepted is None


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


class TestTypedFailures:
    def test_plain_value_error_is_a_fault_not_a_failure(self, monkeypatch):
        def broken(tbl):
            raise ValueError("a bug, not a property of the table")

        monkeypatch.setitem(ESTIMATORS, "chao1", broken)
        with pytest.raises(ValueError, match="a bug"):
            _estimate_batch(("nof1", "chao1"), mixed_tables())
        cfg = SimulationConfig(C=300, size=500, prob=0.99, reps=3, estimators=("chao1",))
        with pytest.raises(ValueError, match="a bug"):
            run_replications(cfg)


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
        # the last table has no singletons
        assert type(joint["breakaway"][-1]) is InsufficientDataError

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
                estimators._series(tbl, 1)
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


def old_f_rule(current, candidate, series):
    """The nested F test as an F statistic against scipy's F(dfn, dfd) quantile."""
    energy = float(np.sum(current.weights * series.ratio**2))
    dfn = candidate.model.n_coef - current.model.n_coef
    dfd = len(series) - candidate.model.n_coef
    if current.weighted_sse <= estimators._PERFECT_FIT_REL * energy or dfd < 1:
        return False
    improvement = current.weighted_sse - candidate.weighted_sse
    f_stat = (improvement / dfn) / max(candidate.weighted_sse / dfd, 1e-300)
    return f_stat > special.fdtri(dfn, dfd, 1.0 - GROWTH_ALPHA)


class TestFCritical:
    """The nested F test: P(F > F_obs) = I_y(dfd/2, dfn/2) at y = SSE_candidate / SSE_current."""

    def test_tail_equals_scipy_betainc(self):
        for dfn in (2, 4, 6, 8):
            for dfd in (*range(1, 60), 100, 257, 1000, 2999):
                quantile = float(stats.f.ppf(1.0 - GROWTH_ALPHA, dfn, dfd))
                for f in (quantile, 0.5, 1.0, 2.0, 5.0):
                    y = dfd / (dfd + dfn * f)
                    want = float(special.betainc(dfd / 2, dfn / 2, y))
                    got = _f_tail(dfn, dfd, y)
                    assert math.isclose(got, want, rel_tol=1e-12), (dfn, dfd, f)

    def test_closed_forms(self):
        for dfd in (1, 2, 3, 10, 33, 2999):
            for y in (1e-3, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.999):
                assert _f_tail(2, dfd, y) == y ** (dfd / 2), (dfd, y)
            for dfn in (2, 4, 6):
                assert _f_tail(dfn, dfd, 0.0) == 0.0
                assert _f_tail(dfn, dfd, 1.0) == 1.0
        for dfn in (1, 3):
            with pytest.raises(ValueError, match="even"):
                _f_tail(dfn, 10, 0.5)

    def test_ladder_rungs_differ_by_even_coefficient_counts(self):
        # _f_tail needs an even dfn for every pair the F walk can compare
        sizes = [RationalModel((1.0,) * (p + 1), (0.0,) * q).n_coef for p, q in LADDER]
        assert len({n % 2 for n in sizes}) == 1, sizes

    def test_selection_is_the_same_under_scipy_quantiles(self, monkeypatch):
        tables = []
        for C, size, prob, rate in ((5000, 500, 0.99, 0.0), (5000, 500, 0.99, 100.0),
                                    (5000, 100, 0.95, 0.0)):
            for i in range(100):
                counts = sample_nb_counts(C, size, prob, replicate_rng(1313, i))
                tables.append(apply_chimeric_inflation(truncate_to_observed(counts), rate))
        select = estimators._select_batch

        def run():
            """Every series' selection trace, and each estimator's (C_hat, se) or failure."""
            traces = []

            def spy(batch, require_f1):
                out = select(batch, require_f1)
                traces.extend(o.trace.tried if isinstance(o, Exception) else o[1].tried for o in out)
                return out

            with monkeypatch.context() as patch:
                patch.setattr(estimators, "_select_batch", spy)
                estimates = _estimate_batch(("nof1", "breakaway"), tables)
            return traces, {
                name: [(e.C_hat, e.se) if isinstance(e, RichnessEstimate) else repr(e) for e in out]
                for name, out in estimates.items()
            }

        ours = run()
        outcomes = [outcome for tried in ours[0] for _, _, outcome in tried]
        # the F test both grew and held the model many times
        assert min(outcomes.count("superseded"), outcomes.count("not-selected")) >= 50
        with monkeypatch.context() as patch:
            patch.setattr(
                estimators,
                "_f_tail",
                lambda dfn, dfd, y: float(special.betainc(dfd / 2, dfn / 2, y)),
            )
            assert run() == ours
        with monkeypatch.context() as patch:
            patch.setattr(estimators, "_significant", old_f_rule)
            assert run() == ours

    def test_package_import_leaves_scipy_stats_unloaded(self, tmp_path):
        counts = sample_nb_counts(5000, 500, 0.99, replicate_rng(20260809, 0))
        path = tmp_path / "table1.txt"
        path.write_text(serialize_frequency_table(truncate_to_observed(counts)))
        code = (
            "import sys, ratiorich, ratiorich.cli\n"
            "from ratiorich import estimators\n"
            "tail, tails = estimators._f_tail, []\n"
            "estimators._f_tail = lambda *args: tails.append(args) or tail(*args)\n"
            f"code = ratiorich.cli.main(['estimate', '--input', {str(path)!r}, '--estimator', 'all'])\n"
            "print(code, len(tails) > 0,"
            " sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ratiorich.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1] == "0 True []"


class TestBreakaway:
    def test_exact_geometric(self):
        t = table({1: 128, 2: 64, 3: 32, 4: 16, 5: 8})
        est = breakaway(t)
        assert est.f0_hat == pytest.approx(256.0, abs=1e-6)
        assert est.C_hat == pytest.approx(504.0, abs=1e-6)
        assert (est.model.p, est.model.q) == (1, 0)
        assert est.f1_hat is None

    def test_exact_geometric_se_closed_form(self):
        # with zero coefficient covariance Var(f0) = f1(C-f1)/(C b0^2), and
        # Var(C) = Var(f0) - c f0/C, written below as the 2x2 sum
        # Var(f0) + Var(c) + 2 Cov(f0, c); for this table = 256
        t = table({1: 128, 2: 64, 3: 32, 4: 16, 5: 8})
        est = breakaway(t)
        f1, c, f0, beta0 = 128, 248, 256.0, 0.5
        c_hat = f0 + c
        var = f1 * (c_hat - f1) / (c_hat * beta0**2) + c * f0 / c_hat - 2 * f0 * c / c_hat
        assert est.se == pytest.approx(math.sqrt(var), abs=1e-6)
        assert est.se == pytest.approx(16.0, abs=1e-6)

    def test_se_hand_oracle_with_coefficient_covariance(self):
        # f1=128, c=248, beta0=0.5: f0=256, C=504 and
        # Var(f0) = f1(C-f1)/(C b0^2) + (f0/b0)^2 Var(b0) = 48128/126 + 262144 * 1e-4;
        # Var(C) = Var(f0) - c f0/C = 256 + 26.2144
        t = table({1: 128, 2: 64, 3: 32, 4: 16, 5: 8})
        fit = synthetic_fit((0.5, 0.0), cov=[[1e-4, 3e-5], [3e-5, 2e-4]])
        est = estimators._estimate(t, fit, 1)
        assert est.se == pytest.approx(math.sqrt(282.2144), rel=1e-12)
        assert est.se == pytest.approx(old_breakaway_se(fit, 128, 248, 256.0), rel=1e-13)

    def test_missing_singletons_rejected_with_hint(self):
        with pytest.raises(InsufficientDataError) as excinfo:
            breakaway(table({2: 64, 3: 32, 4: 16, 5: 8}))
        assert str(excinfo.value) == (
            "table has no singleton entry (f_1); use breakaway_nof1, which predicts it"
        )

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
        with pytest.raises(InsufficientDataError) as excinfo:
            breakaway_nof1(table({1: 10, 3: 2, 4: 1, 5: 1, 6: 1}))
        assert str(excinfo.value) == (
            "table has no doubleton entry (f_2); cannot predict singletons"
        )

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


def old_breakaway_se(fit, f1, c, f0_hat):
    """The breakaway SE as the 2x2 covariance sum over (f0, n'), n' the observed richness."""
    quantities = derived_quantities(fit)
    beta0 = quantities.beta0_hat
    c_hat = f0_hat + c
    var_f0 = (
        f1 * (c_hat - f1) / (c_hat * beta0**2)
        + f1**2 * quantities.var_beta0 / beta0**4
    )
    var_n = c * f0_hat / c_hat
    cov_f0_n = -f0_hat * c / c_hat
    var_c = var_f0 + var_n + 2.0 * cov_f0_n
    if var_c < 0.0:
        warnings.warn("negative variance estimate clamped")
        return 0.0
    return math.sqrt(var_c)


def old_nof1_se(fit, tbl, f0_hat, f1_hat):
    """The nof1 SE as the sum of the full 3x3 covariance of (f0, f1, n), n = sum_{j>=2} f_j."""
    quantities = derived_quantities(fit)
    beta0 = quantities.beta0_hat
    b = quantities.b_hat
    f2 = float(tbl.get(2))
    n = float(sum(f for j, f in tbl.entries if j >= 2))
    c_hat = f0_hat + f1_hat + n
    var_f0 = (
        f2 * (c_hat - f2) / (c_hat * beta0**2 * b**2)
        + f2**2 * quantities.var_beta0 / (beta0**4 * b**2)
        + 2.0 * f2**2 * quantities.cov_b_beta0 / (beta0**3 * b**3)
        + f2**2 * quantities.var_b / (beta0**2 * b**4)
    )
    cov_f0_f1 = (
        f2 * (c_hat - f2) / (c_hat * beta0 * b**2)
        + f2**2 * quantities.cov_b_beta0 / (beta0**2 * b**3)
        + f2**2 * quantities.var_b / (beta0 * b**4)
    )
    var_f1 = f2 * (c_hat - f2) / (c_hat * b**2) + f2**2 * quantities.var_b / b**4
    var_n = n * (f0_hat + f1_hat) / c_hat
    cov_f0_n = -f0_hat * n / c_hat
    cov_f1_n = -f1_hat * n / c_hat
    var_c = var_f0 + var_f1 + var_n + 2.0 * (cov_f0_f1 + cov_f0_n + cov_f1_n)
    if var_c < 0.0:
        warnings.warn("negative variance estimate clamped")
        return 0.0
    return math.sqrt(var_c)


def old_breakaway_estimate(tbl, fit):
    """breakaway's estimate step as written before the j_min rule, its SE the 2x2 sum."""
    f1 = tbl.get(1)
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        f0_hat = f1 / derived_quantities(fit).beta0_hat
        c = observed_richness(tbl)
        c_hat = f0_hat + c
        se = old_breakaway_se(fit, f1, c, f0_hat)
    notes = [str(w.message) for w in captured]
    return RichnessEstimate(
        "breakaway", float(c_hat), float(f0_hat), None, float(se), fit.model, notes
    )


def old_nof1_estimate(tbl, fit):
    """nof1's estimate step as written before the j_min rule, its SE the 3x3 sum."""
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        quantities = derived_quantities(fit)
        f1_hat = tbl.get(2) / quantities.b_hat
        f0_hat = f1_hat / quantities.beta0_hat
        n = sum(f for j, f in tbl.entries if j >= 2)
        c_hat = f0_hat + f1_hat + n
        se = old_nof1_se(fit, tbl, f0_hat, f1_hat)
    notes = [str(w.message) for w in captured]
    return RichnessEstimate(
        "nof1", float(c_hat), float(f0_hat), float(f1_hat), float(se), fit.model, notes
    )


class TestDeltaMethodRule:
    """The j_min estimate step against the two estimate steps and covariance sums above."""

    def test_batch_ses_match_the_expanded_sums(self, monkeypatch):
        # Table-1 at rates 0, +100 and -80 (rate 0 is also criterion 5's first
        # population), criterion 5's second population, and the short,
        # long-tailed and abundance populations of the benchmark
        populations = [
            (5000, 500, 0.99, 0.0),
            (5000, 500, 0.99, 100.0),
            (5000, 500, 0.99, -80.0),
            (5000, 100, 0.95, 0.0),
            (3000, 1, 0.7, 0.0),
            (20000, 10, 0.5, 0.0),
            (3000, 40, 0.9, 0.0),
        ]
        tables = [
            apply_chimeric_inflation(
                truncate_to_observed(sample_nb_counts(C, size, prob, replicate_rng(20260809, i))),
                rate,
            )
            for C, size, prob, rate in populations
            for i in range(100, 200)
        ]
        select, selected = estimators._select_batch, []

        def spy(batch, require_f1):
            out = select(batch, require_f1)
            selected.extend(out)
            return out

        monkeypatch.setattr(estimators, "_select_batch", spy)
        references = {"nof1": old_nof1_estimate, "breakaway": old_breakaway_estimate}
        clamped = 0
        for name, reference in references.items():
            selected.clear()
            column = _estimate_batch((name,), tables)[name]
            done = [(t, est) for t, est in zip(tables, column) if isinstance(est, RichnessEstimate)]
            fits = [o[0] for o in selected if not isinstance(o, NoAdmissibleModelError)]
            assert len(done) > 0.9 * len(tables)
            for (tbl, est), fit in zip(done, fits, strict=True):
                want = reference(tbl, fit)
                assert math.isclose(est.se, want.se, rel_tol=1e-13), (name, est.se, want.se)
                assert est == RichnessEstimate(**{**vars(want), "se": est.se}), name
                clamped += est.se == 0.0
        # the clamp is exercised, and agrees, on some of these tables
        assert clamped > 0


class TestNof1StandardError:
    def test_hand_evaluated_plugin_oracle(self):
        # f2=100, beta0=b=0.5, n=600, zero coefficient covariance: f1=200,
        # f0=400, U = f0 + f1 = 600, C=1200. Var(f2) = 100 * 1100/1200 and
        # dU/df2 = (1 + beta0)/(beta0 b) = 6 give Var(U) = 3300, so
        # Var(C) = Var(U) - n U/C = 3300 - 300 = 3000
        fit = synthetic_fit((0.5, 0.0))
        t = table({2: 100, 3: 500})
        se = nof1_standard_error(fit, t, f0_hat=400.0, f1_hat=200.0)
        assert se == pytest.approx(math.sqrt(3000.0), abs=1e-9)

    def test_hand_evaluated_oracle_with_coefficient_covariance(self):
        # as above with Var(beta0) = 0.01, Cov(beta0, beta1) = 0.002 and
        # Var(beta1) = 0.004, so Cov(b, beta0) = 0.012 and Var(b) = 0.018 for
        # b = beta0 + beta1. dU/dbeta0 = -f2/(beta0^2 b) = -800 and
        # dU/db = -U/b = -1200 add 6400 + 23040 + 25920 = 55360 to Var(U), so
        # Var(C) = 3300 + 55360 - 300 = 58360
        fit = synthetic_fit((0.5, 0.0), cov=[[0.01, 0.002], [0.002, 0.004]])
        t = table({2: 100, 3: 500})
        se = nof1_standard_error(fit, t, f0_hat=400.0, f1_hat=200.0)
        assert se == pytest.approx(math.sqrt(58360.0), rel=1e-12)
        assert se == pytest.approx(old_nof1_se(fit, t, 400.0, 200.0), rel=1e-13)

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
