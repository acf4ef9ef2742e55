"""Richness estimators and the model-selection ladder.

Three estimators over a frequency-count table:

* ``breakaway`` -- fits ratios from j = 1 and predicts the unseen count from
  the observed singletons, f0 = f_1 / beta0, so C = f0 + sum_j f_j.
* ``breakaway_nof1`` (estimator id ``nof1``) -- distrusts the singleton count
  entirely: fits ratios from j = 2, predicts the true singleton count from the
  doubletons, f1 = f_2 / b with b the fitted ratio at j = 1, then
  f0 = f1 / beta0 and C = f0 + f1 + sum_{j>=2} f_j.
* ``chao1`` -- the classical moment lower bound, used as a comparator.

Model selection walks a fixed ladder of rational degrees (1,0), (2,1), (3,2),
(4,3). A rung is admissible when its fit converges, the fitted denominator
stays positive over the data range, and the implied unseen counts are
positive. Among admissible rungs a larger model replaces a smaller one only
when a nested F comparison of their weighted SSEs is significant, which keeps
the most parsimonious model that actually fits.

Standard errors come from a first-order delta method over a multinomial model
for the frequency counts, combining the counts' sampling variance with the
fitted coefficients' covariance.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import fdtri

from . import ratiofit as _ratiofit
from .freqtab import FrequencyCountTable, InsufficientDataError, observed_richness
from .ratiofit import (
    FitResult,
    RankDeficiencyError,
    RationalModel,
    RatioSeries,
    _fit_batch,
    build_ratio_series,
    derived_quantities,
)

__all__ = [
    "LADDER",
    "GROWTH_ALPHA",
    "ESTIMATORS",
    "ESTIMATOR_FAILURES",
    "RichnessEstimate",
    "SelectionTrace",
    "NoAdmissibleModelError",
    "select_model",
    "breakaway",
    "breakaway_nof1",
    "nof1_standard_error",
    "chao1",
]

LADDER: tuple[tuple[int, int], ...] = ((1, 0), (2, 1), (3, 2), (4, 3))
# Significance level for the nested F comparison that lets a larger model
# replace a smaller admissible one.
GROWTH_ALPHA = 0.05
# A fit whose weighted SSE is below this fraction of the weighted response
# energy is treated as exact; no larger model can meaningfully improve on it.
_PERFECT_FIT_REL = 1e-12


@dataclass
class SelectionTrace:
    """Every ladder attempt with its outcome, in attempt order.

    Outcomes: accepted, negative-f0, negative-f1, denominator-violation,
    no-convergence, insufficient-dof, superseded (admissible but beaten by a
    significantly better larger model), not-selected (admissible but not a
    significant improvement over the chosen model). At most one entry is
    accepted.
    """

    tried: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def accepted(self) -> tuple[int, int] | None:
        for p, q, outcome in self.tried:
            if outcome == "accepted":
                return (p, q)
        return None


class NoAdmissibleModelError(RuntimeError):
    """No ladder rung produced an admissible fit; carries the full trace."""

    def __init__(self, message: str, trace: SelectionTrace):
        super().__init__(message)
        self.trace = trace


@lru_cache(maxsize=None)
def _f_critical(dfn: int, dfd: int) -> float:
    # the F(dfn, dfd) quantile; scipy.stats.f.ppf computes the same fdtri
    return float(fdtri(dfn, dfd, 1.0 - GROWTH_ALPHA))


def _denominator_values(model: RationalModel, grid: np.ndarray) -> np.ndarray:
    return np.polynomial.polynomial.polyval(
        grid.astype(float), np.array((1.0,) + model.alpha)
    )


def _is_perfect(fit: FitResult, series: RatioSeries) -> bool:
    energy = float(np.sum(fit.weights * series.ratio**2))
    return fit.weighted_sse <= _PERFECT_FIT_REL * energy


def _fit_each(
    batch: Sequence[RatioSeries], p: int, q: int
) -> list[FitResult | RankDeficiencyError]:
    """fit_wnls on each series in turn, looked up at call time so a wrapper of it sees every fit."""
    out: list[FitResult | RankDeficiencyError] = []
    for series in batch:
        try:
            out.append(_ratiofit.fit_wnls(series, p, q))
        except RankDeficiencyError as exc:
            out.append(exc)
    return out


def _rejection(
    fit: FitResult | RankDeficiencyError, series: RatioSeries, require_f1: bool
) -> str | None:
    """Why a rung's fit is not admissible, or None when it is."""
    if isinstance(fit, RankDeficiencyError) or not fit.converged:
        return "no-convergence"
    grid = np.arange(int(series.j[0]), int(series.j[-1]) + 2)
    if np.any(_denominator_values(fit.model, grid) <= 0.0):
        return "denominator-violation"
    if require_f1:
        one_plus_alpha = 1.0 + sum(fit.model.alpha)
        if not (one_plus_alpha > 0.0) or not (sum(fit.model.beta) / one_plus_alpha > 0.0):
            return "negative-f1"
    if not (fit.model.beta[0] > 0.0):
        return "negative-f0"
    return None


def _choose(
    series: RatioSeries,
    attempts: list[tuple[int, int, str | None]],
    admissible: list[tuple[int, FitResult]],
) -> tuple[FitResult, SelectionTrace] | NoAdmissibleModelError:
    """The nested-F walk over one series' admissible rungs, in ladder order.

    attempts holds every rung's (p, q, outcome), with None for the admissible
    ones; admissible pairs each admissible fit with its index in attempts.
    """
    n = len(series)
    trace = SelectionTrace()
    if not admissible:
        trace.tried = [(p, q, outcome) for p, q, outcome in attempts]  # type: ignore[misc]
        return NoAdmissibleModelError("no admissible model on the ladder", trace)

    labels: dict[int, str] = {}
    current = 0
    for candidate in range(1, len(admissible)):
        cur_fit = admissible[current][1]
        new_fit = admissible[candidate][1]
        if _is_perfect(cur_fit, series):
            labels[candidate] = "not-selected"
            continue
        dfn = new_fit.model.n_coef - cur_fit.model.n_coef
        dfd = n - new_fit.model.n_coef
        improvement = cur_fit.weighted_sse - new_fit.weighted_sse
        significant = False
        if dfd >= 1 and improvement > 0.0:
            f_stat = (improvement / dfn) / max(new_fit.weighted_sse / dfd, 1e-300)
            significant = f_stat > _f_critical(dfn, dfd)
        if significant:
            labels[current] = "superseded"
            current = candidate
        else:
            labels[candidate] = "not-selected"
    labels[current] = "accepted"

    for rank, (attempt_index, _) in enumerate(admissible):
        p, q, _ = attempts[attempt_index]
        attempts[attempt_index] = (p, q, labels[rank])
    trace.tried = [(p, q, outcome) for p, q, outcome in attempts]  # type: ignore[misc]
    return admissible[current][1], trace


def _select_batch(
    batch: Sequence[RatioSeries],
    require_f1: bool | Sequence[bool],
    fit: Callable[[list[RatioSeries], int, int], list] = _fit_batch,
) -> list[tuple[FitResult, SelectionTrace] | NoAdmissibleModelError]:
    """select_model for every series of a batch, in order.

    Each ladder rung is fitted once, by fit(series, p, q), for all the series
    with enough points for it; admissibility, the F walk and the trace are
    each series' own. require_f1 is one flag for the whole batch or one per
    series. A series with no admissible rung gets the NoAdmissibleModelError
    that select_model raises.
    """
    if isinstance(require_f1, bool):
        require_f1 = [require_f1] * len(batch)
    attempts: list[list[tuple[int, int, str | None]]] = [[] for _ in batch]
    admissible: list[list[tuple[int, FitResult]]] = [[] for _ in batch]
    with np.errstate(all="ignore"):
        for p, q in LADDER:
            eligible = [i for i, series in enumerate(batch) if len(series) >= p + q + 2]
            fits = dict(zip(eligible, fit([batch[i] for i in eligible], p, q) if eligible else []))
            for i, series in enumerate(batch):
                if i in fits:
                    outcome = _rejection(fits[i], series, require_f1[i])
                else:
                    outcome = "insufficient-dof"
                if outcome is None:
                    admissible[i].append((len(attempts[i]), fits[i]))
                attempts[i].append((p, q, outcome))
    return [_choose(*args) for args in zip(batch, attempts, admissible)]


def select_model(
    series: RatioSeries, require_f1: bool = False
) -> tuple[FitResult, SelectionTrace]:
    """Pick the most parsimonious admissible rational model for a ratio series.

    Fits every ladder rung with enough points (at least p+q+2). A rung is
    admissible when the fit converged, the fitted denominator is positive on
    the integer grid spanning [j_min, J+1], and beta0 > 0 so the implied
    unseen count is positive; with require_f1 the predicted singleton count
    must also be positive (b > 0). Among admissible rungs, walking the ladder
    upward, a larger model supersedes the current choice only when the nested
    F statistic on their weighted SSEs exceeds the GROWTH_ALPHA critical
    value. Each fit's SSE is taken under its own final weights, so the test
    is a selection guide rather than exact inference. This is _select_batch
    for a batch of one, fitting each rung through fit_wnls.
    """
    outcome = _select_batch([series], require_f1, _fit_each)[0]
    if isinstance(outcome, NoAdmissibleModelError):
        raise outcome
    return outcome


@dataclass
class RichnessEstimate:
    """A single estimator's output: the point estimate, its components, and spread.

    f1_hat is only present for the singleton-free estimator; model is absent
    for chao1. Warnings collect anything non-fatal the pipeline reported
    (variance clamps, ...).
    """

    estimator: str
    C_hat: float
    f0_hat: float
    f1_hat: float | None
    se: float
    model: RationalModel | None
    warnings: list[str] = field(default_factory=list)


def _count_at_least(table: FrequencyCountTable, j_min: int) -> int:
    return sum(f for j, f in table.entries if j >= j_min)


def _breakaway_series(table: FrequencyCountTable) -> RatioSeries:
    f1 = table.get(1)
    if f1 == 0:
        raise ValueError(
            "table has no singleton entry (f_1); use breakaway_nof1, which predicts it"
        )
    return build_ratio_series(table, 1)


def _breakaway_estimate(table: FrequencyCountTable, fit: FitResult) -> RichnessEstimate:
    f1 = table.get(1)
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        beta0 = fit.model.beta[0]
        f0_hat = f1 / beta0
        c = observed_richness(table)
        c_hat = f0_hat + c
        se = _breakaway_standard_error(fit, f1, c, f0_hat)
    notes = [str(w.message) for w in captured]
    return RichnessEstimate(
        estimator="breakaway",
        C_hat=float(c_hat),
        f0_hat=float(f0_hat),
        f1_hat=None,
        se=float(se),
        model=fit.model,
        warnings=notes,
    )


def breakaway(table: FrequencyCountTable) -> RichnessEstimate:
    """Richness estimate that trusts the observed singleton count.

    Fits ratios on j = 1..J and predicts f0 = f_1/beta0, so
    C = f0 + sum_{j>=1} f_j. Requires a singleton entry; without one the
    singleton-free variant is the right tool. This is _estimate_batch's
    breakaway for a batch of one table.
    """
    fit, _ = select_model(_breakaway_series(table), require_f1=False)
    return _breakaway_estimate(table, fit)


def _breakaway_standard_error(fit: FitResult, f1: int, c: int, f0_hat: float) -> float:
    """Delta-method SE for the singleton-using estimator.

    Var(f0) = f1 (C - f1) / (C beta0^2) + f1^2 Var(beta0) / beta0^4 combines
    the multinomial variance of f1 with the fit's coefficient variance;
    Var(n') = n' f0 / C and Cov(f0, n') = -f0 n' / C close the 2x2 system over
    (f0, n') with n' the observed richness. A negative total is clamped to
    zero with a warning.
    """
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


def _nof1_series(table: FrequencyCountTable) -> RatioSeries:
    if table.get(2) == 0:
        raise ValueError("table has no doubleton entry (f_2); cannot predict singletons")
    return build_ratio_series(table, 2)


def _nof1_estimate(table: FrequencyCountTable, fit: FitResult) -> RichnessEstimate:
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        quantities = derived_quantities(fit)
        f2 = table.get(2)
        f1_hat = f2 / quantities.b_hat
        f0_hat = f1_hat / quantities.beta0_hat
        n = _count_at_least(table, 2)
        c_hat = f0_hat + f1_hat + n
        se = nof1_standard_error(fit, table, f0_hat, f1_hat)
    notes = [str(w.message) for w in captured]
    return RichnessEstimate(
        estimator="nof1",
        C_hat=float(c_hat),
        f0_hat=float(f0_hat),
        f1_hat=float(f1_hat),
        se=float(se),
        model=fit.model,
        warnings=notes,
    )


def breakaway_nof1(table: FrequencyCountTable) -> RichnessEstimate:
    """Richness estimate that ignores the stored singleton count.

    Fits ratios on j = 2..J, predicts the true singleton count from the
    doubletons, f1 = f_2/b, then the unseen count f0 = f1/beta0; the total is
    C = f0 + f1 + sum_{j>=2} f_j. Any stored f_1 never enters, so the result
    is invariant to singleton corruption. This is _estimate_batch's nof1 for
    a batch of one table.
    """
    fit, _ = select_model(_nof1_series(table), require_f1=True)
    return _nof1_estimate(table, fit)


def nof1_standard_error(
    fit: FitResult, table: FrequencyCountTable, f0_hat: float, f1_hat: float
) -> float:
    """Delta-method SE for the singleton-free estimator.

    C = f0 + f1 + n with n = sum_{j>=2} f_j, so Var(C) sums the full 3x3
    covariance of (f0, f1, n). The upper 2x2 block propagates the multinomial
    variance of f_2 and the fit covariance of (beta0, b) through
    f1 = f_2/b and f0 = f_2/(beta0 b); the remaining terms are the multinomial
    plug-ins Var(n) = n (f0 + f1)/C, Cov(f0, n) = -f0 n / C and
    Cov(f1, n) = -f1 n / C. A negative total is clamped to zero with a warning.
    """
    quantities = derived_quantities(fit)
    beta0 = quantities.beta0_hat
    b = quantities.b_hat
    f2 = float(table.get(2))
    n = float(_count_at_least(table, 2))
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


def chao1(table: FrequencyCountTable) -> RichnessEstimate:
    """Chao1 comparator: C = c + f1^2/(2 f2), bias-corrected when f2 = 0.

    With doubletons present the variance is f2 (r^4/4 + r^3 + r^2/2) for
    r = f1/f2; the f2 = 0 branch uses the standard variance of the
    bias-corrected form, degenerating to zero when there are no singletons.
    """
    c = observed_richness(table)
    f1 = table.get(1)
    f2 = table.get(2)
    if f2 > 0:
        f0_hat = f1 * f1 / (2.0 * f2)
        ratio = f1 / f2
        var = f2 * (ratio**4 / 4.0 + ratio**3 + ratio**2 / 2.0)
    else:
        f0_hat = f1 * (f1 - 1) / 2.0
        c_hat = c + f0_hat
        if f1 == 0:
            var = 0.0
        else:
            var = (
                f1 * (f1 - 1) / 2.0
                + f1 * (2 * f1 - 1) ** 2 / 4.0
                - f1**4 / (4.0 * c_hat)
            )
    c_hat = c + f0_hat
    return RichnessEstimate(
        estimator="chao1",
        C_hat=float(c_hat),
        f0_hat=float(f0_hat),
        f1_hat=None,
        se=float(math.sqrt(max(var, 0.0))),
        model=None,
        warnings=[],
    )


# The registry of estimator ids, in report order; every list of names is read
# from it at call time.
ESTIMATORS = {
    "nof1": breakaway_nof1,
    "breakaway": breakaway,
    "chao1": chao1,
}


def _check_names(names: Sequence[str]) -> None:
    """Raise ValueError for no names, a name missing from the registry or a name given twice."""
    if not names:
        raise ValueError("at least one estimator is required")
    unknown = [name for name in names if name not in ESTIMATORS]
    if unknown:
        raise ValueError(f"unknown estimators: {unknown}")
    repeated = list(dict.fromkeys(name for name in names if names.count(name) > 1))
    if repeated:
        raise ValueError(f"duplicate estimators: {repeated}")


# What an estimator raises on data it cannot handle: tallied as a failure.
ESTIMATOR_FAILURES = (NoAdmissibleModelError, InsufficientDataError, ValueError)
# The fitted estimators' steps around model selection: the table's ratio
# series, require_f1, and the estimate from the selected fit.
_BATCH_FORMS = {
    breakaway_nof1: (_nof1_series, True, _nof1_estimate),
    breakaway: (_breakaway_series, False, _breakaway_estimate),
}


def _attempt(fn: Callable, *args):
    try:
        return fn(*args)
    except ESTIMATOR_FAILURES as exc:
        return exc


def _estimate_batch(
    names: Sequence[str],
    tables: Sequence[FrequencyCountTable],
    seconds: dict[str, float] | None = None,
) -> dict[str, list[RichnessEstimate | Exception]]:
    """Registry estimators `names` on every table: {name: its estimate or failure per table}.

    The package's fitted estimators build every table's ratio series, select
    all of their models together (one _select_batch over every estimator's
    series, each with its own require_f1) and finish each table alone with
    their own estimate step: the same estimates as calling them table by
    table. Any other registry entry, such as a stub or a wrapper, is called
    once per table. Failures outside ESTIMATOR_FAILURES propagate.

    seconds, when given, receives each name's wall-clock seconds: its own
    series and estimate steps (or its calls, table by table), plus a share
    of the joint selection in proportion to the series it contributed.
    """
    forms = {name: _BATCH_FORMS.get(ESTIMATORS[name]) for name in names}
    clock: dict[str, float] = {}
    out: dict[str, list] = {}
    joint: list[tuple[str, int]] = []  # (name, table index) of every series to select for
    for name, form in forms.items():
        start = time.perf_counter()
        if form is None:
            out[name] = [_attempt(ESTIMATORS[name], table) for table in tables]
        else:
            out[name] = [_attempt(form[0], table) for table in tables]
            joint += [
                (name, i) for i, series in enumerate(out[name]) if isinstance(series, RatioSeries)
            ]
        clock[name] = time.perf_counter() - start
    start = time.perf_counter()
    selected = _select_batch(
        [out[name][i] for name, i in joint], [forms[name][1] for name, _ in joint]
    )
    shared = (time.perf_counter() - start) / max(len(joint), 1)
    for (name, i), outcome in zip(joint, selected):
        start = time.perf_counter()
        if isinstance(outcome, NoAdmissibleModelError):
            out[name][i] = outcome
        else:
            out[name][i] = _attempt(forms[name][2], tables[i], outcome[0])
        clock[name] += time.perf_counter() - start + shared
    if seconds is not None:
        seconds.update(clock)
    return out
