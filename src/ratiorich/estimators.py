"""Richness estimators and the model-selection ladder.

Three estimators over a frequency-count table:

* ``breakaway`` and ``breakaway_nof1`` (estimator id ``nof1``) -- one fitted
  rule, set by the first count j_min it trusts: 1 for breakaway, 2 for nof1,
  which distrusts the singleton count entirely. It fits the ratios from j_min,
  predicts every count below j_min by successive division, f_l = f_{l+1} / m(l)
  with m(0) = beta0 and m(1) = b the fitted ratios, and totals C = U + n for U
  the predicted counts and n = sum_{j>=j_min} f_j.
* ``chao1`` -- the classical moment lower bound, used as a comparator.

Model selection walks a fixed ladder of rational degrees (1,0), (2,1), (3,2),
(4,3). A rung is admissible when its fit converges, the fitted denominator
stays positive over the data range, and the implied unseen counts are
positive. Among admissible rungs a larger model replaces a smaller one only
when a nested F comparison of their weighted SSEs is significant, which keeps
the most parsimonious model that actually fits.

Standard errors come from a first-order delta method over a multinomial model
for the frequency counts. Since Var(n) = n U / C and Cov(U, n) = -n U / C,
Var(C) = Var(U) - n U / C; Var(U) combines the sampling variance of f_{j_min}
with the fitted covariance of (beta0, b).
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import ratiofit as _ratiofit
from .freqtab import FrequencyCountTable, InsufficientDataError, observed_richness
from .ratiofit import (
    DerivedQuantities,
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


def _f_tail(dfn: int, dfd: int, y: float) -> float:
    """P(F > F_obs) for F(dfn, dfd) with even dfn, at y = dfd / (dfd + dfn F_obs).

    The tail is I_y(dfd / 2, dfn / 2), a finite sum for even dfn (Abramowitz
    and Stegun 26.6.4): y^(dfd/2) sum_{i < dfn/2} (dfd/2)_i / i! (1 - y)^i.
    Every pair of LADDER rungs differs by an even number of coefficients.
    """
    if dfn % 2:
        raise ValueError(f"the F tail is a finite sum only for even dfn, got {dfn}")
    term = total = 1.0
    for i in range(1, dfn // 2):
        term *= (dfd / 2 + i - 1) / i * (1.0 - y)
        total += term
    return y ** (dfd / 2) * total


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
    grid = np.arange(float(series.j[0]), float(series.j[-1]) + 2.0)
    if np.any(np.polynomial.polynomial.polyval(grid, (1.0,) + fit.model.alpha) <= 0.0):
        return "denominator-violation"
    if require_f1:
        one_plus_alpha = 1.0 + sum(fit.model.alpha)
        if not (one_plus_alpha > 0.0) or not (sum(fit.model.beta) / one_plus_alpha > 0.0):
            return "negative-f1"
    if not (fit.model.beta[0] > 0.0):
        return "negative-f0"
    return None


# One ladder rung of one series: (p, q, fit, outcome). outcome is None while
# the rung is admissible; fit is None when the series is too short for it.
_Rung = tuple[int, int, FitResult | RankDeficiencyError | None, str | None]


def _significant(current: FitResult, candidate: FitResult, series: RatioSeries) -> bool:
    """Whether a larger admissible rung's fit replaces the current choice: the nested F test.

    Never when the current fit is perfect (its weighted SSE at most
    _PERFECT_FIT_REL of the weighted response energy) or when the candidate
    leaves no residual degree of freedom. Else when P(F > F_obs) < GROWTH_ALPHA,
    a tail that is I_y(dfd / 2, dfn / 2) at y = SSE_candidate / SSE_current
    (Abramowitz and Stegun 26.6.2), summed by _f_tail. A candidate with zero
    SSE always replaces the choice; one that does not lower the SSE, or has a
    NaN SSE, never does.
    """
    energy = float(np.sum(current.weights * series.ratio**2))
    dfn = candidate.model.n_coef - current.model.n_coef
    dfd = len(series) - candidate.model.n_coef
    if current.weighted_sse <= _PERFECT_FIT_REL * energy or dfd < 1:
        return False
    y = candidate.weighted_sse / current.weighted_sse
    return y < 1.0 and _f_tail(dfn, dfd, y) < GROWTH_ALPHA


def _choose(
    series: RatioSeries, rungs: list[_Rung]
) -> tuple[FitResult, SelectionTrace] | NoAdmissibleModelError:
    """The nested-F walk over one series' rungs, in ladder order.

    The first admissible rung is the choice, and a later one replaces it when
    _significant says so: every replaced choice is superseded, the last one
    accepted, and every other admissible rung not-selected.
    """
    tried: list[tuple[int, int, str]] = []
    choice, at = None, 0
    for p, q, fit, outcome in rungs:
        if outcome is None and (choice is None or _significant(choice, fit, series)):
            # relabelled accepted below if no later rung replaces it
            choice, at, outcome = fit, len(tried), "superseded"
        tried.append((p, q, outcome or "not-selected"))
    if choice is None:
        return NoAdmissibleModelError("no admissible model on the ladder", SelectionTrace(tried))
    p, q, _ = tried[at]
    tried[at] = (p, q, "accepted")
    return choice, SelectionTrace(tried)


def _select_batch(
    batch: Sequence[RatioSeries],
    require_f1: Sequence[bool],
    fit: Callable[[list[RatioSeries], int, int], list] = _fit_batch,
) -> list[tuple[FitResult, SelectionTrace] | NoAdmissibleModelError]:
    """select_model for every series of a batch, in order.

    Each ladder rung is fitted once, by fit(series, p, q), for all the series
    with enough points for it; admissibility, the F walk and the trace are
    each series' own. require_f1 holds one flag per series. A series with no
    admissible rung gets the NoAdmissibleModelError that select_model raises.
    """
    rungs: list[list[_Rung]] = [[] for _ in batch]
    with np.errstate(all="ignore"):
        for p, q in LADDER:
            eligible = [i for i, series in enumerate(batch) if len(series) >= p + q + 2]
            fits = dict(zip(eligible, fit([batch[i] for i in eligible], p, q) if eligible else []))
            for i, series in enumerate(batch):
                outcome = "insufficient-dof"
                if i in fits:
                    outcome = _rejection(fits[i], series, require_f1[i])
                rungs[i].append((p, q, fits.get(i), outcome))
    return [_choose(*args) for args in zip(batch, rungs)]


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
    F test on their weighted SSEs is significant: its tail P(F > F_obs), taken
    at y = SSE_candidate / SSE_current, is below GROWTH_ALPHA. Each fit's SSE
    is taken under its own final weights, so the test is a selection guide
    rather than exact inference. This is _select_batch for a batch of one,
    fitting each rung through fit_wnls.
    """
    outcome = _select_batch([series], [require_f1], _fit_each)[0]
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


def _series(table: FrequencyCountTable, j_min: int) -> RatioSeries:
    """The ratio series from j_min; InsufficientDataError when f_{j_min} is 0."""
    if table.get(j_min) == 0:
        raise InsufficientDataError(
            "table has no singleton entry (f_1); use breakaway_nof1, which predicts it"
            if j_min == 1
            else "table has no doubleton entry (f_2); cannot predict singletons"
        )
    return build_ratio_series(table, j_min)


def _predict(f: float, ratios: Sequence[float]) -> list[float]:
    """f_0, ..., f_{k-1} from f = f_k by f_l = f_{l+1} / m(l), for m(l) = ratios[l]."""
    counts = [f]
    for m in reversed(ratios):
        counts.insert(0, counts[0] / m)
    return counts[:-1]


def _delta_se(
    quantities: DerivedQuantities, f: float, counts: Sequence[float], n: float
) -> float:
    """Delta-method SE of C = U + n for U = sum(counts), the counts below j_min = len(counts).

    Var(U) propagates the multinomial variance f (C - f) / C of f = f_{j_min}
    through dU/df, U's factor over f from the fit, and the covariance of
    (m(0), m(1)) = (beta0, b) through dU/dm(i) = -(f_0 + ... + f_i) / m(i).
    Var(C) = Var(U) - n U / C, clamped at zero with a warning.
    """
    ratios = (quantities.beta0_hat, quantities.b_hat)[: len(counts)]
    cov = (
        (quantities.var_beta0, quantities.cov_b_beta0),
        (quantities.cov_b_beta0, quantities.var_b),
    )
    u = sum(counts)
    c_hat = u + n
    du_df = sum(_predict(1.0, ratios))
    du_dm = [-sum(counts[: i + 1]) / m for i, m in enumerate(ratios)]
    var_u = f * (c_hat - f) / c_hat * du_df**2 + sum(
        gi * gk * cov[i][k] for i, gi in enumerate(du_dm) for k, gk in enumerate(du_dm)
    )
    var_c = var_u - n * u / c_hat
    if var_c < 0.0:
        warnings.warn("negative variance estimate clamped")
        return 0.0
    return math.sqrt(var_c)


def _estimate(table: FrequencyCountTable, fit: FitResult, j_min: int) -> RichnessEstimate:
    """The estimate from the fit selected for the series from j_min.

    Every count below j_min is predicted from f_{j_min} by successive
    division, f_l = f_{l+1} / m(l), and C = U + n with U their sum and
    n = sum_{j>=j_min} f_j. Warnings raised on the way become the estimate's.
    """
    f = table.get(j_min)
    with warnings.catch_warnings(record=True) as captured:
        warnings.simplefilter("always")
        quantities = derived_quantities(fit)
        counts = _predict(f, (quantities.beta0_hat, quantities.b_hat)[:j_min])
        n = _count_at_least(table, j_min)
        se = _delta_se(quantities, f, counts, n)
    return RichnessEstimate(
        estimator="breakaway" if j_min == 1 else "nof1",
        C_hat=float(sum(counts) + n),
        f0_hat=float(counts[0]),
        f1_hat=float(counts[1]) if j_min > 1 else None,
        se=float(se),
        model=fit.model,
        warnings=[str(w.message) for w in captured],
    )


def breakaway(table: FrequencyCountTable) -> RichnessEstimate:
    """Richness estimate that trusts the observed singleton count (j_min = 1).

    Fits ratios on j = 1..J and predicts f0 = f_1/beta0, so
    C = f0 + sum_{j>=1} f_j. Requires a singleton entry; without one the
    singleton-free variant is the right tool. This is _estimate_batch's
    breakaway for a batch of one table.
    """
    fit, _ = select_model(_series(table, 1), require_f1=False)
    return _estimate(table, fit, 1)


def breakaway_nof1(table: FrequencyCountTable) -> RichnessEstimate:
    """Richness estimate that ignores the stored singleton count (j_min = 2).

    Fits ratios on j = 2..J, predicts the true singleton count from the
    doubletons, f1 = f_2/b, then the unseen count f0 = f1/beta0; the total is
    C = f0 + f1 + sum_{j>=2} f_j. Any stored f_1 never enters, so the result
    is invariant to singleton corruption. This is _estimate_batch's nof1 for
    a batch of one table.
    """
    fit, _ = select_model(_series(table, 2), require_f1=True)
    return _estimate(table, fit, 2)


def nof1_standard_error(
    fit: FitResult, table: FrequencyCountTable, f0_hat: float, f1_hat: float
) -> float:
    """Delta-method SE for the singleton-free estimator: _delta_se at j_min = 2.

    C = U + n with U = f0_hat + f1_hat = f_2 (1 + beta0) / (beta0 b) and
    n = sum_{j>=2} f_j, so Var(C) = Var(U) - n U / C; this equals the sum of
    the full 3x3 covariance of (f0, f1, n). A negative total is clamped to
    zero with a warning.
    """
    return _delta_se(
        derived_quantities(fit), table.get(2), (f0_hat, f1_hat), _count_at_least(table, 2)
    )


def chao1(table: FrequencyCountTable) -> RichnessEstimate:
    """Chao1 comparator: C = c + f1^2/(2 f2), bias-corrected when f2 = 0.

    With doubletons present the variance is f2 (r^4/4 + r^3 + r^2/2) for
    r = f1/f2; the f2 = 0 branch uses the standard variance of the
    bias-corrected form, degenerating to zero when there are no singletons.
    """
    c = observed_richness(table)
    f1 = table.get(1)
    f2 = table.get(2)
    f0_hat = f1 * f1 / (2.0 * f2) if f2 > 0 else f1 * (f1 - 1) / 2.0
    c_hat = c + f0_hat
    if f2 > 0:
        ratio = f1 / f2
        var = f2 * (ratio**4 / 4.0 + ratio**3 + ratio**2 / 2.0)
    elif f1 == 0:
        var = 0.0
    else:
        var = (
            f1 * (f1 - 1) / 2.0
            + f1 * (2 * f1 - 1) ** 2 / 4.0
            - f1**4 / (4.0 * c_hat)
        )
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


# What an estimator raises on data it cannot handle: tallied as a failure. Any
# other exception, a plain ValueError included, is a fault and propagates.
ESTIMATOR_FAILURES = (NoAdmissibleModelError, InsufficientDataError)
# The fitted estimators, by the first count j_min they trust.
_J_MIN = {breakaway_nof1: 2, breakaway: 1}


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

    The package's fitted estimators build every table's ratio series from
    their j_min, select all of their models together (one _select_batch over
    every estimator's series, each with require_f1 when j_min > 1) and finish
    each table alone with the estimate step: the same estimates as calling
    them table by table. Any other registry entry, such as a stub or a
    wrapper, is called once per table. Failures outside ESTIMATOR_FAILURES
    propagate.

    seconds, when given, receives each name's wall-clock seconds: its own
    series and estimate steps (or its calls, table by table), plus a share
    of the joint selection in proportion to the series it contributed. This
    is the package's one runtime-share rule: the simulation lab gives each
    table an even share of its estimator's seconds in the batch.
    """
    j_mins = {name: _J_MIN.get(ESTIMATORS[name]) for name in names}
    clock: dict[str, float] = {}
    out: dict[str, list] = {}
    joint: list[tuple[str, int]] = []  # (name, table index) of every series to select for
    for name, j_min in j_mins.items():
        start = time.perf_counter()
        if j_min is None:
            out[name] = [_attempt(ESTIMATORS[name], table) for table in tables]
        else:
            out[name] = [_attempt(_series, table, j_min) for table in tables]
            joint += [
                (name, i) for i, series in enumerate(out[name]) if isinstance(series, RatioSeries)
            ]
        clock[name] = time.perf_counter() - start
    start = time.perf_counter()
    selected = _select_batch(
        [out[name][i] for name, i in joint], [j_mins[name] > 1 for name, _ in joint]
    )
    shared = (time.perf_counter() - start) / max(len(joint), 1)
    for (name, i), outcome in zip(joint, selected):
        start = time.perf_counter()
        if isinstance(outcome, NoAdmissibleModelError):
            out[name][i] = outcome
        else:
            out[name][i] = _attempt(_estimate, tables[i], outcome[0], j_mins[name])
        clock[name] += time.perf_counter() - start + shared
    if seconds is not None:
        seconds.update(clock)
    return out
