"""Simulation laboratory: negative-binomial populations, singleton corruption,
replicated estimation, and robust error/calibration summaries.

Every replicate draws its own generator from (seed, replicate index), so a
report is a pure function of its configuration no matter how the replicates
are scheduled. The wall-clock runtime statistics are the one exception; they
are kept out of the serialized report unless explicitly requested.
"""

from __future__ import annotations

import math
import warnings
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple, Sequence

import numpy as np

from ._output import to_csv, to_json
from .estimators import ESTIMATORS, _check_names, _estimate_batch
from .freqtab import FrequencyCountTable, from_abundances

__all__ = [
    "MAD_SCALE",
    "SimulationConfig",
    "SimulationReport",
    "EstimatorStats",
    "ErrorStats",
    "CalibrationResult",
    "CurveRow",
    "DegenerateSampleError",
    "AllReplicatesFailedError",
    "replicate_rng",
    "sample_nb_counts",
    "truncate_to_observed",
    "apply_chimeric_inflation",
    "run_replications",
    "error_stats",
    "scaled_mad",
    "se_calibration",
    "calibration_from_report",
    "subsample_curve",
    "runtime_report",
    "report_rows",
    "report_to_csv",
    "report_to_json",
]

# Normal-consistency factor: MAD_SCALE * MAD estimates a standard deviation,
# making the MAD column directly comparable against reported standard errors.
MAD_SCALE = 1.4826
_PMF_TABLE_CAP = 10_000_000
# Replicates estimated as one batch at most. A batch holds about 20 kB per
# replicate until it is done; by this size the lockstep fit has no speed
# left to gain from a larger one.
_BATCH_REPS = 1024


class DegenerateSampleError(ValueError):
    """Every simulated taxon drew a zero count; no observable sample exists."""


class AllReplicatesFailedError(RuntimeError):
    """No replicate produced an estimate to aggregate."""


def _check_population(C: int, size: int, prob: float) -> None:
    if C < 1:
        raise ValueError("C must be >= 1")
    if size < 1:
        raise ValueError("size must be >= 1")
    if not (0.0 < prob < 1.0):
        raise ValueError("prob must lie strictly inside (0, 1)")


def _check_rate(rate_percent: float) -> None:
    if not math.isfinite(rate_percent):
        raise ValueError("chimeric_rate must be finite")


def _check_reps(reps: int) -> None:
    if reps < 1:
        raise ValueError("reps must be >= 1")


def _check_trim(trim: float) -> None:
    if not (0.0 <= trim < 0.5):
        raise ValueError("trim must lie in [0, 0.5)")


def _check_one_estimator(names: Sequence) -> None:
    if len(names) != 1:
        raise ValueError("SE calibration runs one estimator at a time")


def _check_seed(seed: int) -> int:
    """seed, if it is one replicate_rng takes: a 64-bit unsigned integer."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    return seed


@dataclass(frozen=True)
class SimulationConfig:
    """One simulation scenario: population, corruption, and bookkeeping.

    C is the true richness; counts are negative binomial with the given size
    and probability parameters. chimeric_rate is the percentage by which the
    realized singleton count is inflated (100 doubles it, -80 keeps a fifth).
    The estimators default to every registered one. A (size, prob) whose cdf
    table would pass _PMF_TABLE_CAP entries is rejected with ValueError.
    """

    C: int
    size: int
    prob: float
    chimeric_rate: float = 0.0
    reps: int = 1
    seed: int = 0
    estimators: tuple[str, ...] = field(default_factory=lambda: tuple(ESTIMATORS))
    trim: float = 0.2

    def __post_init__(self) -> None:
        _check_population(self.C, self.size, self.prob)
        _check_rate(self.chimeric_rate)
        _check_reps(self.reps)
        _check_seed(self.seed)
        _check_trim(self.trim)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        _check_names(self.estimators)
        _nb_cdf(self.size, self.prob)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """The pinned per-replicate generator: PCG64 over SeedSequence(seed, spawn_key=(index,)).

    This is the documented stream derivation; a report is reproducible from
    (seed, reps) alone, independent of worker count or execution order.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


@lru_cache(maxsize=16)
def _nb_cdf_or_refusal(size: int, prob: float) -> np.ndarray | str:
    """The negative-binomial cdf at 0, 1, 2, ... as far as a uniform draw can reach.

    The pmf starts at P(0) = prob**size and follows the recurrence
    P(x+1) = P(x) * (1 - prob) * (x + size) / (x + 1); when P(0) underflows,
    the walk tracks the log-pmf until the probabilities become representable.
    The table ends at 1 - 2**-53, the largest uniform Generator.random draws,
    or where further mass cannot move it: a uniform past its end (measure ~0)
    maps to the bin past the table. Past _PMF_TABLE_CAP entries the message
    refusing the table is returned, and cached, instead.

    Two closed forms refuse without walking. The walk cannot end before the
    mode floor((size - 1) q / prob). For size 1 the cdf is 1 - q^(x+1), and
    the walk cannot end within n entries while q^n, the mass past them,
    exceeds 2^-52 (1 / prob + 4 n): the margin covers the rounding of
    q = 1 - prob and of the walk's n products and n sums, and keeps its term
    prob q^x above its 2^-54 share of the total as well.
    """
    q = 1.0 - prob
    n = _PMF_TABLE_CAP + 1
    past = (size - 1) * q / prob >= n or (size == 1 and q**n > 2.0**-52 * (1.0 / prob + 4 * n))
    last = -1 if past else _PMF_TABLE_CAP
    log_current = size * math.log(prob)
    current = math.exp(log_current)
    cdf_values = array("d")
    total = 0.0
    for x in range(last + 1):
        total += current
        cdf_values.append(total)
        if total >= 1.0 - 2.0**-53 or (total > 0.0 and current < total * 2.0**-54):
            return np.asarray(cdf_values)
        if current > 0.0:
            current *= q * (x + size) / (x + 1)
        else:
            log_current += math.log(q) + math.log(x + size) - math.log(x + 1)
            current = math.exp(log_current)
    return f"size {size} and prob {prob!r} need a cdf table of over {_PMF_TABLE_CAP} entries"


def _nb_cdf(size: int, prob: float) -> np.ndarray:
    """_nb_cdf_or_refusal's table; ValueError with its message if it refuses one."""
    if isinstance(table := _nb_cdf_or_refusal(size, prob), str):
        raise ValueError(table)
    return table


def sample_nb_counts(C: int, size: int, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Draw C negative-binomial counts by inverse transform.

    The uniforms are located in the cdf table of (size, prob), built once and
    kept for later calls. Zeros are kept: they become the unobserved taxa
    once the sample is truncated. SimulationConfig's population rule raises ValueError.
    """
    _check_population(C, size, prob)
    return np.searchsorted(_nb_cdf(size, prob), rng.random(C), side="left").astype(np.int64)


def truncate_to_observed(counts: Sequence[int] | np.ndarray) -> FrequencyCountTable:
    """Drop zero counts and build the observable frequency table."""
    arr = np.asarray(counts)
    observed = arr[arr > 0]
    if observed.size == 0:
        raise DegenerateSampleError("all taxa drew zero; the sample is empty")
    values, tallies = np.unique(observed, return_counts=True)
    return FrequencyCountTable(tuple((int(v), int(t)) for v, t in zip(values, tallies)))


def _round_half_away(x: float) -> int:
    if x >= 0:
        return int(math.floor(x + 0.5))
    return -int(math.floor(-x + 0.5))


def apply_chimeric_inflation(
    table: FrequencyCountTable, rate_percent: float
) -> FrequencyCountTable:
    """Scale the realized singleton count by (1 + rate/100).

    Positive rates mimic chimera-induced false singletons, negative rates
    aggressive singleton filtering. The scaled value rounds half away from
    zero and floors at zero (removing the entry); every other f_j is left
    untouched. A table without singletons passes through unchanged. The rate
    rule of SimulationConfig applies first: ValueError unless it is finite.
    """
    _check_rate(rate_percent)
    f1 = table.get(1)
    if f1 == 0:
        return table
    new_f1 = max(0, _round_half_away(f1 * (1.0 + rate_percent / 100.0)))
    remaining = [(j, f) for j, f in table.entries if j != 1]
    if new_f1 > 0:
        remaining.append((1, new_f1))
    remaining.sort()
    if not remaining:
        raise DegenerateSampleError("singleton removal emptied the table")
    return FrequencyCountTable(tuple(remaining))


class ErrorStats(NamedTuple):
    trimmed_rmse: float
    mean_sq: float
    median_sq: float


def _trimmed_mean(values: np.ndarray, trim: float) -> float:
    cut = int(math.floor(trim * values.size))
    return float(np.sort(values)[cut : values.size - cut].mean())


def error_stats(estimates: Sequence[float], true_c: float, trim: float) -> ErrorStats:
    """Squared-error summaries with per-tail trimming.

    floor(trim * n) squared errors are dropped from EACH end of the sorted
    sample before averaging, so trim = 0.2 removes 20% per tail; the trimmed
    root-MSE is the square root of what remains. Mean and median squared
    errors are computed over the full sample.
    """
    values = np.asarray(estimates, dtype=float)
    if values.size == 0:
        raise ValueError("no estimates to summarize")
    _check_trim(trim)
    squared = (values - true_c) ** 2
    return ErrorStats(
        trimmed_rmse=math.sqrt(_trimmed_mean(squared, trim)),
        mean_sq=float(squared.mean()),
        median_sq=float(np.median(squared)),
    )


def scaled_mad(values: Sequence[float]) -> float:
    """Median absolute deviation scaled by MAD_SCALE to estimate an sd."""
    arr = np.asarray(values, dtype=float)
    return float(MAD_SCALE * np.median(np.abs(arr - np.median(arr))))


@dataclass(frozen=True)
class EstimatorStats:
    """Aggregates for one estimator over the successful replicates."""

    estimator: str
    failures: int
    trimmed_rmse: float
    mean_sq_error: float
    median_sq_error: float
    median_se: float
    mad_of_estimates: float
    runtime_tmean: float
    runtime_mean: float
    runtime_median: float


@dataclass(frozen=True)
class SimulationReport:
    config: SimulationConfig
    stats: tuple[EstimatorStats, ...]

    def for_estimator(self, name: str) -> EstimatorStats:
        for entry in self.stats:
            if entry.estimator == name:
                return entry
        raise KeyError(name)


def _replicate_table(cfg: SimulationConfig, index: int) -> FrequencyCountTable | None:
    """One replicate's sampled, truncated and inflated table; None when the sample is degenerate."""
    rng = replicate_rng(cfg.seed, index)
    counts = sample_nb_counts(cfg.C, cfg.size, cfg.prob, rng)
    try:
        return apply_chimeric_inflation(truncate_to_observed(counts), cfg.chimeric_rate)
    except DegenerateSampleError:
        return None


def _replicate_block(
    cfg: SimulationConfig, start: int, stop: int
) -> dict[str, list[tuple[bool, float, float, float]]]:
    """Replicates start..stop-1 as {estimator: (ok, C_hat, se, seconds) per replicate}.

    Each batch of at most _BATCH_REPS replicates draws all its tables, then
    runs every estimator on the usable ones as one _estimate_batch, whose
    docstring says what a table's seconds cover. A batch's usable tables come
    in replicate order, then a failure with no seconds for each degenerate
    sample. Estimation failures are tallied, never raised.
    """
    columns: dict[str, list] = {name: [] for name in cfg.estimators}
    for first in range(start, stop, _BATCH_REPS):
        tables = [_replicate_table(cfg, i) for i in range(first, min(first + _BATCH_REPS, stop))]
        usable = [table for table in tables if table is not None]
        seconds: dict[str, float] = {}
        for name, outcomes in _estimate_batch(cfg.estimators, usable, seconds).items():
            share = seconds[name] / max(len(usable), 1)
            columns[name] += [
                (False, math.nan, math.nan, share)
                if isinstance(outcome, Exception)
                else (True, outcome.C_hat, outcome.se, share)
                for outcome in outcomes
            ]
            columns[name] += [(False, math.nan, math.nan, 0.0)] * (len(tables) - len(usable))
    return columns


def _aggregate(
    cfg: SimulationConfig, name: str, column: list[tuple[bool, float, float, float]]
) -> EstimatorStats:
    successes = [row for row in column if row[0]]
    if not successes:
        return EstimatorStats(name, cfg.reps, *(math.nan,) * 8)
    _, chats, ses, times = (np.array(values) for values in zip(*successes))
    errors = error_stats(chats, float(cfg.C), cfg.trim)
    return EstimatorStats(
        estimator=name,
        failures=cfg.reps - chats.size,
        trimmed_rmse=errors.trimmed_rmse,
        mean_sq_error=errors.mean_sq,
        median_sq_error=errors.median_sq,
        median_se=float(np.median(ses)),
        mad_of_estimates=scaled_mad(chats),
        runtime_tmean=_trimmed_mean(times, cfg.trim),
        runtime_mean=float(times.mean()),
        runtime_median=float(np.median(times)),
    )


def run_replications(cfg: SimulationConfig, workers: int = 1) -> SimulationReport:
    """Run the sample -> truncate -> inflate -> estimate pipeline cfg.reps times.

    Each worker takes one contiguous block of replicates, builds its tables
    and estimates them with every estimator as one batch. An estimator's
    statistics come from its blocks' columns joined in block order, so its
    estimates arrive in replicate order, and every estimate is a pure
    function of its table: serial and parallel execution produce identical
    reports (runtime statistics aside, which never enter the default
    serialization).
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    blocks = min(workers, cfg.reps)
    bounds = [b * cfg.reps // blocks for b in range(blocks + 1)]
    if blocks == 1:
        parts = [_replicate_block(cfg, 0, cfg.reps)]
    else:
        with ProcessPoolExecutor(max_workers=blocks) as pool:
            parts = list(pool.map(partial(_replicate_block, cfg), bounds[:-1], bounds[1:]))
    stats = tuple(
        _aggregate(cfg, name, [row for part in parts for row in part[name]])
        for name in cfg.estimators
    )
    return SimulationReport(config=cfg, stats=stats)


class CalibrationResult(NamedTuple):
    median_se: float
    mad_of_estimates: float
    relative_error_percent: float


def calibration_from_report(report: SimulationReport) -> CalibrationResult:
    """Median reported SE against the scaled MAD of the estimates, in percent.

    Positive percentages mean the reported standard errors overstate the
    actual spread; negative means they understate it. A zero MAD (every
    replicate identical) leaves the relative error undefined and flagged.
    """
    _check_one_estimator(report.stats)
    entry = report.stats[0]
    if entry.failures >= report.config.reps:
        raise AllReplicatesFailedError("every replicate failed; nothing to calibrate")
    if entry.mad_of_estimates == 0.0:
        warnings.warn("zero spread in estimates; relative error undefined")
        return CalibrationResult(entry.median_se, 0.0, math.nan)
    relative = 100.0 * (entry.median_se - entry.mad_of_estimates) / entry.mad_of_estimates
    return CalibrationResult(entry.median_se, entry.mad_of_estimates, relative)


def se_calibration(cfg: SimulationConfig, workers: int = 1) -> CalibrationResult:
    """Run a single-estimator configuration and calibrate its standard errors."""
    _check_one_estimator(cfg.estimators)
    return calibration_from_report(run_replications(cfg, workers=workers))


@dataclass(frozen=True)
class CurveRow:
    fraction: float
    estimator: str
    mean_C_hat: float
    sd_C_hat: float
    failures: int


def _check_curve_arguments(fractions: Sequence[float], reps: int) -> None:
    """Raise ValueError for no fractions, a fraction outside (0, 1] or reps below 1."""
    if not fractions:
        raise ValueError("no fractions given")
    if any(not (0.0 < x <= 1.0) for x in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    _check_reps(reps)


def subsample_curve(
    abundances: Sequence[int],
    fractions: Sequence[float],
    reps: int,
    rng: np.random.Generator,
    estimators: Sequence[str] | None = None,
) -> list[CurveRow]:
    """Estimator behaviour under multinomial subsampling of the reads.

    For each fraction < 1, draws `reps` multinomial subsamples of
    round(fraction * N) reads (N = total reads), rebuilds their tables, and
    estimates them with every estimator as one batch; fraction 1.0 evaluates the
    full sample exactly once. Rows come back fraction-major in the given
    (ascending) order; a row with no usable subsample is flagged with NaN
    summaries and a full failure count. The estimators default to every
    registered one. from_abundances' rule raises ValueError for bad abundances.
    """
    full = from_abundances(abundances)
    counts = np.asarray(abundances, dtype=np.int64)
    fracs = [float(x) for x in fractions]
    _check_curve_arguments(fracs, reps)
    if any(b < a for a, b in zip(fracs, fracs[1:])):
        raise ValueError("fractions must be sorted ascending")
    if estimators is None:
        estimators = tuple(ESTIMATORS)
    _check_names(estimators)

    total = int(counts.sum())
    probabilities = counts / total
    rows: list[CurveRow] = []
    for fraction in fracs:
        if fraction == 1.0:
            tables: list[FrequencyCountTable | None] = [full]
        else:
            draw_size = _round_half_away(fraction * total)
            tables = []
            for _ in range(reps):
                draw = rng.multinomial(draw_size, probabilities)
                kept = draw[draw > 0]
                tables.append(from_abundances(kept.tolist()) if kept.size else None)
        usable = [table for table in tables if table is not None]
        outcomes = _estimate_batch(estimators, usable)
        for name in estimators:
            values = [
                outcome.C_hat for outcome in outcomes[name] if not isinstance(outcome, Exception)
            ]
            failures = len(tables) - len(values)
            if values:
                arr = np.asarray(values)
                sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
                rows.append(CurveRow(fraction, name, float(arr.mean()), sd, failures))
            else:
                rows.append(CurveRow(fraction, name, math.nan, math.nan, failures))
    return rows


def runtime_report(cfg: SimulationConfig, workers: int = 1) -> dict[str, tuple[float, float, float]]:
    """Wall-clock estimation seconds per table, as (trimmed mean, mean, median).

    A table's seconds are its even share of its estimator's seconds in its
    batch, as _estimate_batch measures them; sampling and table construction
    are excluded. Trimming follows the error_stats convention with cfg.trim.
    """
    return {
        entry.estimator: (entry.runtime_tmean, entry.runtime_mean, entry.runtime_median)
        for entry in run_replications(cfg, workers=workers).stats
    }


_STAT_FIELDS = (
    "trimmed_rmse",
    "mean_sq_error",
    "median_sq_error",
    "median_se",
    "mad_of_estimates",
)
_RUNTIME_FIELDS = ("runtime_tmean", "runtime_mean", "runtime_median")
_REPORT_COLUMNS = ("estimator", "statistic", "value", "failures", "reps", "seed")


def report_rows(
    report: SimulationReport, include_runtimes: bool = False
) -> list[tuple[str, str, float, int, int, int]]:
    """Rows under the fixed column contract (estimator, statistic, value,
    failures, reps, seed).

    Runtime statistics depend on the wall clock, so they are excluded unless
    asked for: the default rows are bit-reproducible from the configuration.
    """
    fields = _STAT_FIELDS + (_RUNTIME_FIELDS if include_runtimes else ())
    reps, seed = report.config.reps, report.config.seed
    return [
        (entry.estimator, name, getattr(entry, name), entry.failures, reps, seed)
        for entry in report.stats
        for name in fields
    ]


def report_to_csv(
    report: SimulationReport,
    include_runtimes: bool = False,
    precision: int | None = None,
) -> str:
    rows = [dict(zip(_REPORT_COLUMNS, row)) for row in report_rows(report, include_runtimes)]
    return to_csv(_REPORT_COLUMNS, rows, precision)


def report_to_json(report: SimulationReport, include_runtimes: bool = False) -> str:
    fields = _STAT_FIELDS + (_RUNTIME_FIELDS if include_runtimes else ())
    payload = {
        "config": asdict(report.config),
        "estimators": {
            entry.estimator: {
                **{name: getattr(entry, name) for name in fields},
                "failures": entry.failures,
            }
            for entry in report.stats
        },
    }
    return to_json(payload)
