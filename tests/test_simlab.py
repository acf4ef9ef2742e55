import json
import math
import tracemalloc

import numpy as np
import pytest

from ratiorich import simlab
from ratiorich.estimators import ESTIMATORS, RichnessEstimate
from ratiorich.simlab import (
    DegenerateSampleError,
    SimulationConfig,
    apply_chimeric_inflation,
    calibration_from_report,
    error_stats,
    replicate_rng,
    report_rows,
    report_to_csv,
    report_to_json,
    run_replications,
    runtime_report,
    sample_nb_counts,
    scaled_mad,
    se_calibration,
    subsample_curve,
    truncate_to_observed,
)

from helpers import table


def old_sample_nb_counts(C, size, prob, rng):
    """The sampler with its cdf table walked per call, up to the call's largest uniform."""
    u = rng.random(C)
    u_max = float(np.max(u))
    q = 1.0 - prob
    log_current = size * math.log(prob)
    current = math.exp(log_current)
    cdf_values, total, x = [], 0.0, 0
    while True:
        total += current
        cdf_values.append(total)
        if total >= u_max or (total > 0.0 and current < total * 2.0**-54):
            break
        if current > 0.0:
            current *= q * (x + size) / (x + 1)
        else:
            log_current += math.log(q) + math.log(x + size) - math.log(x + 1)
            current = math.exp(log_current)
        x += 1
    return np.searchsorted(np.asarray(cdf_values), u, side="left").astype(np.int64)


def old_nb_cdf(size, prob):
    """The cdf table walked entry by entry until it ends or passes simlab._PMF_TABLE_CAP."""
    q = 1.0 - prob
    log_current = size * math.log(prob)
    current = math.exp(log_current)
    cdf_values, total, x = [], 0.0, 0
    while True:
        total += current
        cdf_values.append(total)
        if total >= 1.0 - 2.0**-53 or (total > 0.0 and current < total * 2.0**-54):
            return np.asarray(cdf_values)
        if len(cdf_values) > simlab._PMF_TABLE_CAP:
            raise ValueError(f"size {size} and prob {prob!r} need a cdf table of over "
                             f"{simlab._PMF_TABLE_CAP} entries")
        if current > 0.0:
            current *= q * (x + size) / (x + 1)
        else:
            log_current += math.log(q) + math.log(x + size) - math.log(x + 1)
            current = math.exp(log_current)
        x += 1


def old_error_stats(estimates, true_c, trim):
    """error_stats with its own trimming slice and np.sqrt."""
    values = np.asarray(estimates, dtype=float)
    squared = (values - true_c) ** 2
    cut = int(math.floor(trim * squared.size))
    middle = np.sort(squared)[cut : squared.size - cut]
    return simlab.ErrorStats(
        trimmed_rmse=float(np.sqrt(middle.mean())),
        mean_sq=float(squared.mean()),
        median_sq=float(np.median(squared)),
    )


def old_aggregate(cfg, name, column):
    """_aggregate with one pass per column and a NaN tuple for no success."""
    chats = np.array([c for ok, c, _, _ in column if ok])
    ses = np.array([s for ok, _, s, _ in column if ok])
    times = np.array([t for ok, _, _, t in column if ok])
    failures = cfg.reps - chats.size
    if chats.size:
        errors = old_error_stats(chats, float(cfg.C), cfg.trim)
        median_se = float(np.median(ses))
        mad = scaled_mad(chats)
        runtimes = (
            simlab._trimmed_mean(times, cfg.trim), float(times.mean()), float(np.median(times))
        )
    else:
        errors = simlab.ErrorStats(math.nan, math.nan, math.nan)
        median_se = math.nan
        mad = math.nan
        runtimes = (math.nan, math.nan, math.nan)
    return simlab.EstimatorStats(
        estimator=name,
        failures=failures,
        trimmed_rmse=errors.trimmed_rmse,
        mean_sq_error=errors.mean_sq,
        median_sq_error=errors.median_sq,
        median_se=median_se,
        mad_of_estimates=mad,
        runtime_tmean=runtimes[0],
        runtime_mean=runtimes[1],
        runtime_median=runtimes[2],
    )


@pytest.fixture(autouse=True)
def _no_cdf_table_outlives_its_test():
    # a test that lowers simlab._PMF_TABLE_CAP must not leave a refusal cached under it
    yield
    simlab._nb_cdf_or_refusal.cache_clear()


class TestSampleNbCounts:
    def test_same_draws_as_a_table_walked_to_the_largest_uniform(self):
        # the table runs on to 1 - 2**-53, which moves no searchsorted(side="left")
        for size, prob in ((500, 0.99), (100, 0.95), (1, 0.7), (10, 0.5), (40, 0.9),
                           (50_000, 0.99), (1, 1e-4)):
            for i in range(5):
                got = sample_nb_counts(2000, size, prob, replicate_rng(5, i))
                want = old_sample_nb_counts(2000, size, prob, replicate_rng(5, i))
                assert np.array_equal(got, want), (size, prob, i)

    def test_mean_within_three_standard_errors(self):
        rng = replicate_rng(123, 0)
        draws = sample_nb_counts(100_000, 500, 0.99, rng)
        mean = 500 * 0.01 / 0.99
        var = 500 * 0.01 / 0.99**2
        tol = 3 * math.sqrt(var / draws.size)
        assert abs(draws.mean() - mean) <= tol

    def test_expected_zero_count(self):
        # P(0) = prob**size evaluated numerically; binomial tolerance
        C = 200_000
        p0 = 0.99**500
        rng = replicate_rng(9, 0)
        zeros = int(np.sum(sample_nb_counts(C, 500, 0.99, rng) == 0))
        sd = math.sqrt(C * p0 * (1 - p0))
        assert abs(zeros - C * p0) <= 5 * sd

    def test_same_seed_same_vector(self):
        a = sample_nb_counts(5000, 500, 0.99, replicate_rng(7, 3))
        b = sample_nb_counts(5000, 500, 0.99, replicate_rng(7, 3))
        assert np.array_equal(a, b)

    def test_different_stream_differs(self):
        a = sample_nb_counts(5000, 500, 0.99, replicate_rng(7, 3))
        b = sample_nb_counts(5000, 500, 0.99, replicate_rng(7, 4))
        assert not np.array_equal(a, b)

    def test_extreme_probability_validation(self):
        with pytest.raises(ValueError):
            sample_nb_counts(10, 5, 0.0, replicate_rng(1, 0))
        with pytest.raises(ValueError):
            sample_nb_counts(10, 5, 1.0, replicate_rng(1, 0))

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="size must be >= 1"):
            sample_nb_counts(10, size, 0.5, replicate_rng(1, 0))

    def test_mode_past_the_cap_refused_like_the_walk(self, monkeypatch):
        # modes floor((size - 1)(1 - prob)/prob) from 990 to 1010 around a cap of
        # 1000, and size-1 probs from 0.02 to 0.04, over which the walk's end
        # passes entry 1000 (at prob 0.033) and the closed form's (at 0.027)
        monkeypatch.setattr(simlab, "_PMF_TABLE_CAP", 1000)
        pairs = [
            (size, (size - 1) / (mode + 0.5 + size - 1))
            for size in (2, 3, 10, 200)
            for mode in range(990, 1011)
        ] + [(1, 0.02 + k * 0.0005) for k in range(41)]
        refused_by_bound = 0
        for size, prob in pairs:
            try:
                want = old_nb_cdf(size, prob)
            except ValueError as exc:
                want = str(exc)
            got = simlab._nb_cdf_or_refusal(size, prob)
            q = 1.0 - prob
            if (size - 1) * q / prob >= 1001 or (
                size == 1 and q**1001 > 2.0**-52 * (1.0 / prob + 4 * 1001)
            ):
                refused_by_bound += 1
                assert isinstance(want, str), (size, prob)
            if isinstance(want, str):
                assert got == want, (size, prob)
            else:
                assert np.array_equal(got, want), (size, prob)
        assert refused_by_bound == 40 + 15

    def test_a_second_refusal_is_a_cache_hit(self, monkeypatch):
        monkeypatch.setattr(simlab, "_PMF_TABLE_CAP", 1000)
        simlab._nb_cdf_or_refusal.cache_clear()
        for size, prob in ((1, 0.0123), (3, 0.001)):
            for _ in range(2):
                with pytest.raises(ValueError, match=f"size {size} and prob {prob} need a cdf"):
                    sample_nb_counts(10, size, prob, replicate_rng(1, 0))
        info = simlab._nb_cdf_or_refusal.cache_info()
        assert (info.hits, info.misses) == (2, 2)

    def test_a_refused_walk_holds_eight_bytes_an_entry(self, monkeypatch):
        # (2, 1e-5) has its mode just inside the cap, so it walks all 100,001 entries
        monkeypatch.setattr(simlab, "_PMF_TABLE_CAP", 100_000)
        rng = replicate_rng(1, 0)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="need a cdf table of over 100000"):
                sample_nb_counts(10, 2, 1e-5, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_underflowing_p0_still_samples(self):
        # prob**size underflows to zero; the log-space walk must cope
        rng = replicate_rng(11, 0)
        draws = sample_nb_counts(2000, 50_000, 0.99, rng)
        mean = 50_000 * 0.01 / 0.99
        assert abs(draws.mean() - mean) <= 5 * math.sqrt(50_000 * 0.01 / 0.99**2 / 2000)


class TestTruncate:
    def test_drops_zeros(self):
        assert truncate_to_observed([0, 0, 1, 2, 2]).counts == {1: 1, 2: 2}

    def test_all_zero_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            truncate_to_observed([0, 0, 0])

    def test_no_zeros_preserves_richness(self):
        t = truncate_to_observed([1, 2, 3, 3])
        assert sum(f for _, f in t.entries) == 4


class TestInflation:
    def test_doubling(self):
        t = apply_chimeric_inflation(table({1: 100, 2: 50}), 100.0)
        assert t.counts == {1: 200, 2: 50}

    def test_deflation(self):
        t = apply_chimeric_inflation(table({1: 100, 2: 50}), -80.0)
        assert t.counts == {1: 20, 2: 50}

    def test_rounding_half_away_from_zero(self):
        t = apply_chimeric_inflation(table({1: 10, 2: 5}), 33.0)
        assert t.counts == {1: 13, 2: 5}  # 13.3 rounds to 13

    def test_rate_zero_is_identity(self):
        t = table({1: 17, 2: 5, 3: 2})
        assert apply_chimeric_inflation(t, 0.0) == t

    def test_full_removal_drops_entry(self):
        t = apply_chimeric_inflation(table({1: 3, 2: 5}), -100.0)
        assert t.counts == {2: 5}

    def test_missing_singletons_pass_through(self):
        t = table({2: 5, 3: 1})
        assert apply_chimeric_inflation(t, 250.0) == t

    @pytest.mark.parametrize("rate", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("counts", [{1: 100, 2: 50}, {2: 5, 3: 1}])
    def test_non_finite_rate_rejected(self, rate, counts):
        with pytest.raises(ValueError, match="chimeric_rate must be finite"):
            apply_chimeric_inflation(table(counts), rate)


class TestErrorStats:
    def test_hand_computed_oracle(self):
        # sorted squared errors [0, 100, 100, 10000, 10000]; trimming one per
        # tail leaves mean 3400
        stats = error_stats([4990, 5010, 5000, 5100, 4900], 5000.0, 0.2)
        assert stats.trimmed_rmse == pytest.approx(math.sqrt(3400.0))
        assert stats.mean_sq == pytest.approx(4040.0)
        assert stats.median_sq == pytest.approx(100.0)

    def test_all_exact(self):
        stats = error_stats([5000.0] * 5, 5000.0, 0.2)
        assert stats == (0.0, 0.0, 0.0)

    def test_zero_trim_is_plain_rmse(self):
        stats = error_stats([1.0, 3.0, 7.0], 2.0, 0.0)
        assert stats.trimmed_rmse == pytest.approx(math.sqrt(stats.mean_sq))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            error_stats([], 5.0, 0.2)

    def test_same_numbers_as_its_own_trimming_slice(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 5, 101):
            values = 5000.0 + 40.0 * rng.standard_normal(n)
            for trim in (0.0, 0.1, 0.2, 0.49):
                assert error_stats(values, 5000.0, trim) == old_error_stats(values, 5000.0, trim)


def _same_stats(got, want):
    for name, value in vars(want).items():
        other = getattr(got, name)
        assert other == value or (math.isnan(other) and math.isnan(value)), name


class TestAggregate:
    """_aggregate gives the numbers of its one-pass-per-column reference, field by field."""

    NAN_ROW = (False, math.nan, math.nan, 0.0)

    def check(self, column, trim=0.2):
        cfg = SimulationConfig(C=5000, size=5, prob=0.5, reps=len(column), trim=trim)
        _same_stats(simlab._aggregate(cfg, "nof1", column), old_aggregate(cfg, "nof1", column))

    def test_all_failed(self):
        self.check([self.NAN_ROW, (False, math.nan, math.nan, 0.004)] * 3)

    def test_one_success(self):
        self.check([(True, 5010.0, 12.0, 0.003), self.NAN_ROW, (False, math.nan, math.nan, 0.002)])

    def test_trim_that_cuts_rows(self):
        column = [(True, 5000.0 + 7.0 * i * (-1) ** i, 30.0 + i, 0.001 * i) for i in range(10)]
        for trim in (0.0, 0.1, 0.2, 0.3):
            self.check(column, trim)

    def test_mixed_failures_with_runtimes(self):
        rng = np.random.default_rng(23)
        column = [
            (True, float(c), float(s), float(t)) if ok else (False, math.nan, math.nan, float(t))
            for ok, c, s, t in zip(
                rng.random(30) < 0.6,
                5000.0 + 60.0 * rng.standard_normal(30),
                50.0 + rng.random(30),
                rng.random(30) * 0.01,
            )
        ]
        self.check(column)


class TestRunReplications:
    CFG = dict(C=300, size=500, prob=0.99, chimeric_rate=0.0, reps=30, seed=99)

    def test_identical_config_identical_report(self):
        cfg = SimulationConfig(**self.CFG)
        a = report_to_csv(run_replications(cfg))
        b = report_to_csv(run_replications(cfg))
        assert a == b

    def test_serial_parallel_identical(self):
        cfg = SimulationConfig(**self.CFG)
        serial = report_to_csv(run_replications(cfg, workers=1))
        parallel = report_to_csv(run_replications(cfg, workers=2))
        assert serial == parallel

    def test_reports_identical_for_any_worker_count(self):
        # 11 replicates split unevenly over 2 and 3 contiguous blocks
        cfg = SimulationConfig(**{**self.CFG, "reps": 11})
        reports = [report_to_json(run_replications(cfg, workers=w)) for w in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]

    def test_reports_identical_for_any_batch_split(self, monkeypatch):
        cfg = SimulationConfig(**{**self.CFG, "reps": 11})
        whole = report_to_json(run_replications(cfg))
        monkeypatch.setattr(simlab, "_BATCH_REPS", 4)
        assert report_to_json(run_replications(cfg)) == whole

    def test_nof1_invariant_to_inflation_rate(self):
        # the singleton-free estimator never reads f_1, so its statistics are
        # identical across chimeric rates on the same seed
        reports = [
            run_replications(
                SimulationConfig(**{**self.CFG, "chimeric_rate": rate}, estimators=("nof1",))
            )
            for rate in (0.0, 100.0, -80.0)
        ]
        rows = [report_rows(r) for r in reports]
        values = [[(stat, val) for _, stat, val, *_ in r] for r in rows]
        assert values[0] == values[1] == values[2]

    def test_failures_plus_successes_equal_reps(self):
        cfg = SimulationConfig(C=30, size=2, prob=0.7, reps=40, seed=5, estimators=("nof1", "chao1"))
        report = run_replications(cfg)
        for entry in report.stats:
            assert 0 <= entry.failures <= cfg.reps

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(C=0, size=5, prob=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(C=5, size=5, prob=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(C=5, size=5, prob=0.5, trim=0.5)
        with pytest.raises(ValueError):
            SimulationConfig(C=5, size=5, prob=0.5, estimators=("bogus",))
        with pytest.raises(ValueError, match=r"duplicate estimators: \['chao1'\]"):
            SimulationConfig(C=5, size=5, prob=0.5, estimators=("chao1", "nof1", "chao1"))
        with pytest.raises(ValueError, match="at least one estimator is required"):
            SimulationConfig(C=5, size=5, prob=0.5, estimators=())
        with pytest.raises(ValueError):
            SimulationConfig(C=5, size=5, prob=0.5, seed=-1)
        for rate in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                SimulationConfig(C=5, size=5, prob=0.5, chimeric_rate=rate)

    def test_config_rejects_a_cdf_table_past_the_cap(self, monkeypatch):
        # geometric counts at prob 0.0123 need about 2,700 entries before the
        # tail stops moving the cdf; the largest of 10 draws lands near entry 200
        monkeypatch.setattr(simlab, "_PMF_TABLE_CAP", 1000)
        with pytest.raises(ValueError, match="size 1 and prob 0.0123 need a cdf table of over 1000"):
            SimulationConfig(C=10, size=1, prob=0.0123)
        SimulationConfig(C=10, size=1, prob=0.05)


class TestJointBatch:
    """All estimators of a block select their models together, with unchanged reports."""

    CFG = dict(C=300, size=500, prob=0.99, chimeric_rate=100.0, reps=11, seed=98)

    def test_joint_report_equals_one_estimator_at_a_time(self):
        joint = json.loads(report_to_json(run_replications(SimulationConfig(**self.CFG))))
        for name in ESTIMATORS:
            cfg = SimulationConfig(**self.CFG, estimators=(name,))
            alone = json.loads(report_to_json(run_replications(cfg)))
            assert joint["estimators"][name] == alone["estimators"][name]

    def test_reversed_estimator_order_identical_at_any_worker_count(self):
        forward = json.loads(report_to_json(run_replications(SimulationConfig(**self.CFG))))
        cfg = SimulationConfig(**self.CFG, estimators=("chao1", "breakaway", "nof1"))
        reports = [report_to_json(run_replications(cfg, workers=w)) for w in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]
        assert json.loads(reports[0])["estimators"] == forward["estimators"]


class TestReportSerialization:
    def test_fixed_csv_columns(self):
        cfg = SimulationConfig(C=200, size=500, prob=0.99, reps=5, seed=1, estimators=("chao1",))
        text = report_to_csv(run_replications(cfg))
        header, *rows = text.strip().split("\n")
        assert header == "estimator,statistic,value,failures,reps,seed"
        stats = [row.split(",")[1] for row in rows]
        assert stats == [
            "trimmed_rmse",
            "mean_sq_error",
            "median_sq_error",
            "median_se",
            "mad_of_estimates",
        ]

    def test_runtime_rows_opt_in(self):
        cfg = SimulationConfig(C=200, size=500, prob=0.99, reps=5, seed=1, estimators=("chao1",))
        report = run_replications(cfg)
        assert len(report_rows(report, include_runtimes=True)) == 8
        assert len(report_rows(report)) == 5

    def test_json_matches_csv_values(self):
        import json

        cfg = SimulationConfig(C=200, size=500, prob=0.99, reps=8, seed=3, estimators=("chao1",))
        report = run_replications(cfg)
        payload = json.loads(report_to_json(report))
        csv_rows = report_rows(report)
        for estimator, stat, value, *_ in csv_rows:
            assert payload["estimators"][estimator][stat] == pytest.approx(value)


class TestCalibration:
    def test_requires_single_estimator(self):
        cfg = SimulationConfig(C=100, size=500, prob=0.99, reps=3, seed=1)
        with pytest.raises(ValueError, match="one estimator"):
            se_calibration(cfg)

    def test_degenerate_zero_spread_flagged(self):
        # two taxa sampled at depth ~50 reads each: chao1 is the constant 2
        # with zero standard error in every replicate
        cfg = SimulationConfig(C=2, size=50, prob=0.5, reps=5, seed=8, estimators=("chao1",))
        with pytest.warns(UserWarning, match="zero spread"):
            cal = se_calibration(cfg)
        assert cal.mad_of_estimates == 0.0
        assert math.isnan(cal.relative_error_percent)

    def test_matches_report_fields(self):
        cfg = SimulationConfig(C=300, size=500, prob=0.99, reps=25, seed=4, estimators=("nof1",))
        report = run_replications(cfg)
        cal = calibration_from_report(report)
        entry = report.stats[0]
        assert cal.median_se == entry.median_se
        assert cal.mad_of_estimates == entry.mad_of_estimates
        expected = 100.0 * (entry.median_se - entry.mad_of_estimates) / entry.mad_of_estimates
        assert cal.relative_error_percent == pytest.approx(expected)


class TestScaledMad:
    def test_normal_consistency_factor(self):
        assert scaled_mad([1.0, 2.0, 3.0]) == pytest.approx(1.4826)

    def test_constant_sample(self):
        assert scaled_mad([5.0, 5.0, 5.0]) == 0.0


class TestSubsampleCurve:
    VECTOR = [1] * 256 + [2] * 128 + [3] * 64 + [4] * 32 + [5] * 16 + [6] * 8

    def test_full_fraction_single_evaluation(self):
        rng = np.random.default_rng(2)
        rows = subsample_curve(self.VECTOR, [1.0], reps=50, rng=rng, estimators=("chao1",))
        assert len(rows) == 1
        row = rows[0]
        assert row.sd_C_hat == 0.0
        from ratiorich.freqtab import from_abundances
        from ratiorich.estimators import chao1

        assert row.mean_C_hat == pytest.approx(chao1(from_abundances(self.VECTOR)).C_hat)

    def test_rows_ascending_fraction_major(self):
        rng = np.random.default_rng(3)
        rows = subsample_curve(
            self.VECTOR, [0.5, 1.0], reps=5, rng=rng, estimators=("chao1", "nof1")
        )
        assert [(r.fraction, r.estimator) for r in rows] == [
            (0.5, "chao1"),
            (0.5, "nof1"),
            (1.0, "chao1"),
            (1.0, "nof1"),
        ]

    def test_half_depth_estimates_below_full_on_average(self):
        rng = np.random.default_rng(4)
        rows = subsample_curve(self.VECTOR, [0.5, 1.0], reps=200, rng=rng, estimators=("chao1",))
        half, full = rows[0], rows[1]
        assert half.failures == 0
        assert half.mean_C_hat < full.mean_C_hat

    def test_unsorted_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="ascending"):
            subsample_curve(self.VECTOR, [1.0, 0.5], reps=2, rng=rng)

    def test_out_of_range_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="fractions"):
            subsample_curve(self.VECTOR, [0.0, 0.5], reps=2, rng=rng)

    def test_repeated_estimator_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match=r"duplicate estimators: \['nof1'\]"):
            subsample_curve(self.VECTOR, [1.0], reps=2, rng=rng, estimators=("nof1", "nof1"))

    def test_no_estimator_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="at least one estimator is required"):
            subsample_curve(self.VECTOR, [1.0], reps=2, rng=rng, estimators=())

    def test_non_integer_abundance_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="abundances must be positive integers, got 2.5"):
            subsample_curve([2.5, 3, 1, 1], [0.5, 1.0], reps=2, rng=rng)


def _counting_stub(calls):
    def stub(table):
        calls.append(table)
        return RichnessEstimate("nof1", 1.0, 0.0, 1.0, 0.0, None, [])

    return stub


class TestStubbedEstimatorsPerTable:
    """A registry entry that is not the package's own is called once per table."""

    def test_run_replications(self, monkeypatch):
        calls = []
        monkeypatch.setitem(ESTIMATORS, "nof1", _counting_stub(calls))
        cfg = SimulationConfig(
            C=100, size=500, prob=0.99, reps=7, seed=6, estimators=("nof1", "breakaway")
        )
        report = run_replications(cfg)
        expected = [
            truncate_to_observed(sample_nb_counts(100, 500, 0.99, replicate_rng(6, i)))
            for i in range(7)
        ]
        assert calls == expected
        assert report.for_estimator("nof1").failures == 0

    def test_subsample_curve(self, monkeypatch):
        calls = []
        monkeypatch.setitem(ESTIMATORS, "nof1", _counting_stub(calls))
        rng = np.random.default_rng(1)
        rows = subsample_curve(
            TestSubsampleCurve.VECTOR, [0.5, 1.0], reps=4, rng=rng, estimators=("nof1", "chao1")
        )
        assert len(calls) == 4 + 1
        assert [row.failures for row in rows] == [0, 0, 0, 0]


class TestRuntimeReport:
    def test_noop_estimator_times_near_zero(self, monkeypatch):
        def instant(table):
            return RichnessEstimate("instant", 1.0, 0.0, None, 0.0, None, [])

        monkeypatch.setitem(ESTIMATORS, "instant", instant)
        cfg = SimulationConfig(C=100, size=500, prob=0.99, reps=10, seed=6, estimators=("instant",))
        times = runtime_report(cfg)["instant"]
        assert all(t >= 0.0 for t in times)
        assert times[2] < 0.01  # median of a no-op call

    def test_real_estimators_return_finite_triples(self):
        cfg = SimulationConfig(C=300, size=500, prob=0.99, reps=8, seed=6, estimators=("nof1", "chao1"))
        report = runtime_report(cfg)
        for name in ("nof1", "chao1"):
            tmean, mean, median = report[name]
            assert all(math.isfinite(x) and x >= 0 for x in (tmean, mean, median))
