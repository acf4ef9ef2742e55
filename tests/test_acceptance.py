"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4 and 5 are desk-scale Monte Carlo reproductions (1,000 replicates
apiece); expect a few minutes of wall-clock time. Run with `pytest -s
tests/test_acceptance.py` to watch the per-criterion lines as they complete.
"""

import math
import os
import time

import numpy as np
import pytest

import ratiorich as rr
from ratiorich.estimators import ESTIMATORS
from ratiorich.freqtab import FrequencyCountTable, from_abundances, parse_frequency_table
from ratiorich.ratiofit import FitResult, RationalModel, build_ratio_series
from ratiorich.simlab import report_to_csv

from helpers import (
    finite_difference_gradient,
    projective_coordinates,
    random_bounded_model,
    random_contiguous_table,
    table,
)

SEED = 20260809
TABLE1_CFG = dict(C=5000, size=500, prob=0.99, reps=1000, trim=0.2, seed=SEED)
WORKERS = min(4, os.cpu_count() or 1)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_exact_ratio_oracle():
    start = time.perf_counter()
    est = rr.breakaway_nof1(table({2: 64, 3: 32, 4: 16, 5: 8, 6: 4}))
    elapsed = time.perf_counter() - start
    ok = (
        abs(est.f1_hat - 128.0) <= 1e-6
        and abs(est.f0_hat - 256.0) <= 1e-6
        and abs(est.C_hat - 508.0) <= 1e-6
        and (est.model.p, est.model.q) == (1, 0)
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"exact-ratio table: f1={est.f1_hat:.9f} f0={est.f0_hat:.9f} "
        f"C={est.C_hat:.9f} model=({est.model.p},{est.model.q}) in {elapsed:.3f}s",
    )


def test_criterion_2_appendix_formula_oracle():
    # f2=100, beta0=b=0.5, n=600, zero coefficient covariance: U = f0 + f1 = 600,
    # C=1200, Var(U) = 3300 and Var(C) = Var(U) - n U/C = 3000
    fit = FitResult(
        model=RationalModel((0.5, 0.0)),
        cov=np.zeros((2, 2)),
        residuals=np.zeros(4),
        converged=True,
        iterations=1,
        weighted_sse=0.0,
        weights=np.ones(4),
    )
    se = rr.nof1_standard_error(fit, table({2: 100, 3: 500}), f0_hat=400.0, f1_hat=200.0)
    ok = abs(se - math.sqrt(3000.0)) <= 1e-9
    report(2, ok, f"plug-in SE = {se!r} vs sqrt(3000) = {math.sqrt(3000.0)!r}")


def test_criterion_3_chao1_exactness():
    a = rr.chao1(table({1: 10, 2: 5, 3: 2}))
    b = rr.chao1(table({1: 4}))
    ok = a.C_hat == 27.0 and b.C_hat == 4 + 4 * 3 / 2
    report(3, ok, f"chao1: f2>0 branch {a.C_hat}, f2=0 branch {b.C_hat}")


@pytest.fixture(scope="module")
def table1_reports():
    out = {}
    for rate in (0.0, 100.0, -80.0):
        cfg = rr.SimulationConfig(
            chimeric_rate=rate,
            estimators=("nof1", "breakaway", "chao1"),
            **TABLE1_CFG,
        )
        out[rate] = rr.run_replications(cfg, workers=WORKERS)
    return out


class TestCriterion4Table1:
    """Desk-scale reproduction of the error comparison across corruption rates."""

    @pytest.fixture()
    def reports(self, table1_reports):
        return table1_reports

    def test_rate_0(self, reports):
        stats = {s.estimator: s.trimmed_rmse for s in reports[0.0].stats}
        ok = (
            4.5 <= stats["chao1"] <= 8.0
            and 3.5 <= stats["breakaway"] <= 7.0
            and 65.0 <= stats["nof1"] <= 105.0
        )
        report(
            4,
            ok,
            "rate 0%: chao1={chao1:.2f} (want [4.5,8.0]), breakaway={breakaway:.2f} "
            "(want [3.5,7.0]), nof1={nof1:.2f} (want [65,105])".format(**stats),
        )

    def test_rate_100(self, reports):
        stats = {s.estimator: s.trimmed_rmse for s in reports[100.0].stats}
        ok = (
            65.0 <= stats["nof1"] <= 105.0
            and stats["nof1"] < stats["chao1"]
            and stats["nof1"] < stats["breakaway"]
        )
        report(
            4,
            ok,
            "rate 100%: nof1={nof1:.2f} (want [65,105] and below chao1={chao1:.2f}, "
            "breakaway={breakaway:.2f})".format(**stats),
        )

    def test_rate_minus_80(self, reports):
        stats = {s.estimator: s.trimmed_rmse for s in reports[-80.0].stats}
        ok = stats["nof1"] < stats["chao1"] and stats["nof1"] < stats["breakaway"]
        report(
            4,
            ok,
            "rate -80%: nof1={nof1:.2f} strictly below chao1={chao1:.2f} and "
            "breakaway={breakaway:.2f}".format(**stats),
        )


class TestCriterion5SeCalibration:
    def test_high_diversity_underreports(self):
        cfg = rr.SimulationConfig(
            C=5000, size=500, prob=0.99, reps=1000, seed=SEED, estimators=("nof1",)
        )
        cal = rr.se_calibration(cfg, workers=WORKERS)
        rel = cal.relative_error_percent
        ok = -45.0 <= rel <= 0.0
        report(
            5,
            ok,
            f"(5000,500,0.99): medse={cal.median_se:.2f} mad={cal.mad_of_estimates:.2f} "
            f"rel={rel:.2f}% (want negative, in [-45,0])",
        )

    def test_lower_diversity_overreports(self):
        cfg = rr.SimulationConfig(
            C=5000, size=100, prob=0.95, reps=1000, seed=SEED, estimators=("nof1",)
        )
        cal = rr.se_calibration(cfg, workers=WORKERS)
        rel = cal.relative_error_percent
        ok = 0.0 <= rel <= 30.0
        report(
            5,
            ok,
            f"(5000,100,0.95): medse={cal.median_se:.2f} mad={cal.mad_of_estimates:.2f} "
            f"rel={rel:.2f}% (want positive, in [0,30])",
        )


class TestCriterion6PropertySuite:
    def test_nof1_singleton_invariance(self):
        rng = np.random.default_rng(606)
        checked = 0
        for _ in range(100):
            t = random_contiguous_table(rng, j_start=2, min_points=4)
            f1 = int(rng.integers(1, 5000))
            spiked_table = FrequencyCountTable.from_counts({**t.counts, 1: f1})
            try:
                base = rr.breakaway_nof1(t)
            except (rr.NoAdmissibleModelError, ValueError):
                continue
            spiked = rr.breakaway_nof1(spiked_table)
            assert abs(spiked.C_hat - base.C_hat) <= 1e-9
            assert abs(spiked.se - base.se) <= 1e-9
            checked += 1
        report(6, checked >= 50, f"nof1 invariant to stored f_1 on {checked} tables")

    def test_scale_equivariance(self):
        rng = np.random.default_rng(607)
        checked = 0
        for _ in range(40):
            t = random_contiguous_table(rng, j_start=2, min_points=5)
            try:
                base = rr.breakaway_nof1(t)
            except (rr.NoAdmissibleModelError, ValueError):
                continue
            for k in (2, 5, 10):
                scaled = rr.breakaway_nof1(
                    FrequencyCountTable.from_counts({j: k * f for j, f in t.entries})
                )
                tol = 1e-6 * k * base.C_hat
                assert abs(scaled.f0_hat - k * base.f0_hat) <= 1e-4 * k * base.f0_hat + tol
                assert abs(scaled.f1_hat - k * base.f1_hat) <= 1e-4 * k * base.f1_hat + tol
                assert scaled.C_hat == pytest.approx(k * base.C_hat, rel=1e-5)
            checked += 1
        report(6, checked >= 10, f"scale equivariance under k in {{2,5,10}} on {checked} tables")

    def test_jacobian_against_finite_differences(self):
        from ratiorich.ratiofit import _design_matrices, _model_and_jacobian

        rng = np.random.default_rng(608)
        worst = 0.0
        for _ in range(100):
            model, j = random_bounded_model(rng)
            numerator, denominator = projective_coordinates(model)
            vn, vd = _design_matrices(np.array([j]), model.p, model.q)
            _, jac, _ = _model_and_jacobian(numerator, denominator, vn, vd)
            fd = finite_difference_gradient(numerator, denominator, j)
            rel = np.max(np.abs(jac[0] - fd) / np.maximum(np.abs(fd), 1.0))
            worst = max(worst, rel)
        report(6, worst <= 1e-4, f"analytic vs FD Jacobian, worst relative error {worst:.2e}")

    def test_cov_symmetry_and_selection_determinism(self):
        rng = np.random.default_rng(609)
        for _ in range(25):
            t = random_contiguous_table(rng, j_start=2, min_points=6)
            s = build_ratio_series(t, 2)
            try:
                fit1, trace1 = rr.select_model(s, require_f1=True)
                fit2, trace2 = rr.select_model(s, require_f1=True)
            except rr.NoAdmissibleModelError:
                continue
            scale = max(1.0, float(np.abs(fit1.cov).max()))
            assert np.allclose(fit1.cov, fit1.cov.T, atol=1e-10 * scale)
            assert np.all(np.diag(fit1.cov) >= 0)
            assert trace1.tried == trace2.tried
            assert np.array_equal(fit1.model.coefficient_vector(), fit2.model.coefficient_vector())
        report(6, True, "cov symmetric/nonnegative-diagonal; selection deterministic")

    def test_seed_determinism_serial_vs_parallel(self):
        cfg = rr.SimulationConfig(
            C=300, size=500, prob=0.99, reps=24, seed=4242,
            estimators=("nof1", "breakaway", "chao1"),
        )
        serial = report_to_csv(rr.run_replications(cfg, workers=1))
        parallel = report_to_csv(rr.run_replications(cfg, workers=2))
        again = report_to_csv(rr.run_replications(cfg, workers=1))
        ok = serial == parallel == again
        report(6, ok, "byte-identical reports across serial/parallel execution")


def test_criterion_7_bootstrap_sanity():
    # one fixed synthetic fit: a single pinned draw from the simulation
    # population, so the fitted covariance carries a realistic noise scale
    draw = rr.sample_nb_counts(5000, 500, 0.99, rr.replicate_rng(SEED, 0))
    fixture = rr.truncate_to_observed(draw)
    est = rr.breakaway_nof1(fixture)
    assert est.se > 0

    total = int(round(est.C_hat))
    observed = [(j, f) for j, f in fixture.entries if j >= 2]
    cells = [est.f0_hat, est.f1_hat] + [float(f) for _, f in observed]
    values = [0, 1] + [j for j, _ in observed]
    probabilities = np.array(cells) / sum(cells)
    rng = np.random.default_rng(7007)
    draws = []
    for _ in range(1000):
        sampled = rng.multinomial(total, probabilities)
        resampled = {v: int(c) for v, c in zip(values, sampled) if v >= 2 and c > 0}
        if not resampled:
            continue
        try:
            boot = rr.breakaway_nof1(FrequencyCountTable.from_counts(resampled))
            draws.append(boot.C_hat)
        except (rr.NoAdmissibleModelError, ValueError):
            continue
    sd = float(np.std(draws, ddof=1))
    ratio = sd / est.se
    ok = len(draws) >= 800 and (1 / 3) <= ratio <= 3.0
    report(
        7,
        ok,
        f"bootstrap SD {sd:.1f} vs delta SE {est.se:.1f} (ratio {ratio:.2f}, "
        f"{len(draws)} usable draws; want ratio in [1/3, 3])",
    )


def test_criterion_8_published_datasets():
    data_dir = os.environ.get("RICHNESS_DATA_DIR", os.path.join(os.path.dirname(__file__), "data"))
    apple = os.path.join(data_dir, "apple_orchard.txt")
    hawaii = os.path.join(data_dir, "hawaii.txt")
    if not (os.path.exists(apple) and os.path.exists(hawaii)):
        print("[ACCEPTANCE 8] SKIP - published frequency tables not available "
              f"(looked in {data_dir})")
        pytest.skip("published apple-orchard/Hawaiian tables not bundled")
    expectations = [(apple, 1500.0, 1341.0), (hawaii, 3100.0, 2944.0)]
    details = []
    ok = True
    for path, c_published, se_published in expectations:
        est = rr.breakaway_nof1(parse_frequency_table(open(path).read()))
        within = abs(est.C_hat - c_published) <= se_published
        ok = ok and within
        details.append(f"{os.path.basename(path)}: C={est.C_hat:.0f} vs {c_published:.0f}+-{se_published:.0f}")
    report(8, ok, "; ".join(details))
