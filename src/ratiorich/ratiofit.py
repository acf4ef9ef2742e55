"""Rational-polynomial regression on frequency ratios.

The response is the ratio of successive frequency counts, r_j = f_{j+1}/f_j,
modelled as a ratio of polynomials in j:

    m(j) = N(j) / D(j) = (c0 + c1 j + ... + cp j^p) / (d0 + d1 j + ... + dq j^q)

fitted by iteratively reweighted nonlinear least squares. Weights follow the
first-order variance of a ratio of counts, Var(r_j) ~ r_j^2 (1/f_{j+1} + 1/f_j),
refreshed from the current fitted ratios over a small number of outer passes.

The fit works in the projective chart: the denominator vector d is kept at
unit length, and the numerator c, which enters linearly for a fixed d, is
eliminated by weighted least squares (variable projection, Golub & Pereyra,
Inverse Problems 19, 2003). Damped Newton moves d over the unit sphere, so
at most q <= 3 parameters are nonlinear. Every finite fitted function sits
at finite coordinates in this chart: the limit d0 -> 0, where m(0) -> inf and
the coefficients of the reported form below diverge, is an ordinary point.

One kernel fits a whole batch of series of one rung in lockstep: arrays are
stacked as (batch, points, coef), each series is padded with zero-weight
rows to a length set by its own point count, and every stacked LAPACK call
runs LAPACK once per series, so a fit is a pure function of its series, bit
for bit, whatever batch it is fitted in. Stopped series stay frozen in the
kernel's arrays until at most half still step, when the arrays are compacted.

Results are reported as RationalModel (beta, alpha) = (c / d0, d[1:] / d0),
the form with D(0) = 1. The chart covariance is sigma^2 (Jw' Jw)^-1, with Jw
the weighted Jacobian of m over (c, tangent directions of d) at the optimum
and sigma^2 the weighted residual mean square. FitResult.cov is that
covariance mapped to (beta, alpha); derived_quantities reads the chart
covariance itself, which stays well conditioned where the mapped one does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
# numpy's private gufuncs run LAPACK once per matrix of a stack: the public qr,
# solve and inv add about 8 us of checks a call, and qr cannot reuse a factorization.
# Their bits equal scipy's LAPACK for every factorization and for solves up to 5x5;
# the 6x6 and 8x8 covariance inverses of rungs (3,2) and (4,3) differ in the last bits.
from numpy.linalg._umath_linalg import inv, qr_r_raw, qr_reduced, solve1

from .freqtab import FrequencyCountTable, tail_cutoff

__all__ = [
    "RationalModel",
    "RatioSeries",
    "FitResult",
    "FittingChart",
    "RankDeficiencyError",
    "DerivedQuantities",
    "build_ratio_series",
    "eval_model",
    "fit_wnls",
    "derived_quantities",
]

REWEIGHT_PASSES = 3
MAX_ITERATIONS = 200
INITIAL_DAMPING = 1e-3
SSE_REL_TOL = 1e-10
STEP_TOL = 1e-8
_DAMPING_GROWTH = 10.0
_DAMPING_MAX = 1e15
_DAMPING_MIN = 1e-15
# A Newton step that lowers the SSE by more than this fraction is tried
# again stretched; see _variable_projection.
_EXTRAPOLATE_ABOVE = 1e-4
# Series are padded with zero-weight rows to a multiple of this many points,
# so the padding, and with it every fitted bit, depends on a series' own
# length and never on the batch it is fitted in.
_PAD_ROWS = 8
# Fitted ratios are floored at this magnitude inside the reweighting rule so
# a near-zero fitted value cannot produce an infinite weight.
_RATIO_FLOOR = 1e-8


class RankDeficiencyError(RuntimeError):
    """Normal equations or coefficient covariance are numerically singular."""


@dataclass(frozen=True)
class RationalModel:
    """Degrees (p, q) and coefficients of the ratio model.

    beta holds b0..bp (numerator, low to high); alpha holds a1..aq. The
    denominator's constant term is fixed at 1.
    """

    beta: tuple[float, ...]
    alpha: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if len(self.beta) < 1:
            raise ValueError("numerator needs at least the constant coefficient")

    @property
    def p(self) -> int:
        return len(self.beta) - 1

    @property
    def q(self) -> int:
        return len(self.alpha)

    @property
    def n_coef(self) -> int:
        return len(self.beta) + len(self.alpha)

    def coefficient_vector(self) -> np.ndarray:
        return np.array(self.beta + self.alpha, dtype=float)

    @classmethod
    def from_vector(cls, theta: np.ndarray, p: int, q: int) -> "RationalModel":
        theta = np.asarray(theta, dtype=float)
        if theta.size != p + q + 1:
            raise ValueError("coefficient vector length does not match degrees")
        return cls(tuple(theta[: p + 1]), tuple(theta[p + 1 :]))


def _polyval(x: np.ndarray, coefficients: Sequence[float]) -> np.ndarray:
    """c0 + c1 x + ... + cn x^n by Horner's rule, for the coefficients c0..cn.

    The operations are numpy.polynomial.polynomial.polyval's, in its order, so
    the values equal polyval's bit for bit and numpy.polynomial stays unimported.
    """
    acc = coefficients[-1] + x * 0
    for c in reversed(coefficients[:-1]):
        acc = c + acc * x
    return acc


def eval_model(model: RationalModel, j: float | np.ndarray) -> float | np.ndarray:
    """Evaluate the rational model at j (scalar or array).

    Raises ZeroDivisionError if the denominator vanishes at any requested j.
    """
    jarr = np.asarray(j, dtype=float)
    num = _polyval(jarr, model.beta)
    den = _polyval(jarr, (1.0,) + model.alpha)
    if np.any(np.abs(den) < 1e-300):
        raise ZeroDivisionError("model denominator vanishes at requested j")
    out = num / den
    if jarr.ndim == 0:
        return float(out)
    return out


@dataclass
class RatioSeries:
    """Regression dataset of frequency ratios r_j = f_{j+1}/f_j.

    count_lo / count_hi hold the (f_j, f_{j+1}) pairs backing each point;
    every fit pass's weights come from them, evaluated at the observed and
    then at the fitted ratios. Ratios and counts must be finite and positive.
    """

    j: np.ndarray
    ratio: np.ndarray
    count_lo: np.ndarray
    count_hi: np.ndarray

    def __post_init__(self) -> None:
        self.j = np.asarray(self.j, dtype=int)
        self.ratio = np.asarray(self.ratio, dtype=float)
        self.count_lo = np.asarray(self.count_lo, dtype=float)
        self.count_hi = np.asarray(self.count_hi, dtype=float)
        n = self.j.size
        sizes = {self.ratio.size, self.count_lo.size, self.count_hi.size}
        if sizes != {n}:
            raise ValueError("ratio series arrays must have equal length")
        if n == 0:
            raise ValueError("empty ratio series")
        if np.any(np.diff(self.j) <= 0):
            raise ValueError("count values must be strictly increasing")
        if not np.all(np.isfinite(self.ratio) & (self.ratio > 0)):
            raise ValueError("ratios must be finite and positive")
        counts = np.concatenate((self.count_lo, self.count_hi))
        if not np.all(np.isfinite(counts) & (counts > 0)):
            raise ValueError("counts must be finite and positive")

    def __len__(self) -> int:
        return int(self.j.size)


def build_ratio_series(table: FrequencyCountTable, j_min: int) -> RatioSeries:
    """One point per j in [j_min, J]: r_j = f_{j+1}/f_j.

    J comes from tail_cutoff, so insufficient data propagates from there.
    """
    big_j = tail_cutoff(table, j_min)
    counts = np.array([table.get(j) for j in range(j_min, big_j + 2)], dtype=float)
    lo, hi = counts[:-1], counts[1:]
    return RatioSeries(j=np.arange(j_min, big_j + 1), ratio=hi / lo, count_lo=lo, count_hi=hi)


class FittingChart(NamedTuple):
    """A fit's optimum and covariance in the coordinates it was fitted in.

    numerator is c, denominator is d with |d| = 1 and d0 >= 0, so that
    beta = c / d0 and alpha = d[1:] / d0. cov is the covariance of the
    stacked vector (c, d); the radial direction of d carries no variance.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    cov: np.ndarray


@dataclass
class FitResult:
    """Fitted coefficients plus everything inference downstream needs.

    cov is the (p+q+1) x (p+q+1) coefficient covariance of (beta, alpha);
    weights are the final heteroskedasticity weights, kept so callers can
    reason about the weighted SSE on the same scale the fit used. chart holds
    the optimum in the fitting chart for q >= 1; it is None for q = 0, where
    (beta) is the fitting chart and cov says everything.
    """

    model: RationalModel
    cov: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int
    weighted_sse: float
    weights: np.ndarray
    chart: FittingChart | None = None


def _design_matrices(j: np.ndarray, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Vandermonde columns j^0..j^p for the numerator and j^0..j^q for the denominator.

    j may carry leading batch axes. Powers are repeated products, exact for
    the integer j of a ratio series.
    """
    powers = np.empty(np.shape(j) + (max(p, q) + 1,))
    powers[..., 0] = 1.0
    for e in range(1, powers.shape[-1]):
        np.multiply(powers[..., e - 1], j, out=powers[..., e])
    return np.ascontiguousarray(powers[..., : p + 1]), np.ascontiguousarray(powers[..., : q + 1])


def _model_and_jacobian(
    c: np.ndarray, d: np.ndarray, vn: np.ndarray, vd: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model values m(j) = N(j)/D(j), the Jacobian dm/d(c, d) and D(j).

    dm/dc_i = j^i / D and dm/dd_k = -m(j) j^k / D. The arrays may carry a
    leading batch axis. A vanishing denominator propagates as inf/nan.
    """
    den = np.matmul(vd, d[..., None])
    m = np.matmul(vn, c[..., None]) / den
    jac = np.concatenate([vn, -m * vd], axis=-1) / den
    return m[..., 0], jac, den[..., 0]


def _tangent_basis(d: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the planes orthogonal to unit vectors d, shape (..., q+1).

    Columns 1.. of the Householder reflection I - v v' / (1 + |d0|), with
    v = d + sign(d0) e0, which maps e0 to -sign(d0) d.
    """
    size = d.shape[-1]
    v = d + np.copysign(_eye(size)[0], d[..., :1])
    scaled = v[..., None, 1:] / np.abs(v[..., :1, None])
    return _eye(size, -1) - v[..., :, None] * scaled


@lru_cache(maxsize=None)
def _eye(size: int, shift: int = 0) -> np.ndarray:
    """np.eye(size, size + shift, shift), built once and read-only."""
    eye = np.eye(size, size + shift, shift)
    eye.flags.writeable = False
    return eye


class _Projection(NamedTuple):
    """The weighted linear subproblems of a batch at one denominator each.

    Arrays are stacked over the series; den is D(j) at the denominators d, as
    (batch, 1, points).
    qr[i].T and tau[i] are LAPACK's compact QR of the augmented weighted
    design [A | sqrt(w) r] of series i, factored in place through the
    transposed view: its top k rows hold R and Q' sqrt(w) r, and its
    (k, k) entry is the norm of the projected residual, so sse needs no
    explicit Q. sse is inf where D vanishes on the data.
    """

    d: np.ndarray
    den: np.ndarray
    qr: np.ndarray
    tau: np.ndarray
    sse: np.ndarray

    def take(self, rows) -> "_Projection":
        return _Projection(*(a[rows] for a in self))

    def put(self, rows, other: "_Projection") -> None:
        for a, b in zip(self, other):
            a[rows] = b


def _project(
    d: np.ndarray, swvn_t: np.ndarray, vd_t: np.ndarray, swr: np.ndarray
) -> _Projection:
    """Numerators solving the weighted least squares for denominators d (batch, q+1).

    The weighted design is A = sqrt(w) j^i / D(j), from swvn_t = sqrt(w) j^i
    and vd_t = j^i as (batch, coef, points), and swr = sqrt(w) r; the
    projected residual is sqrt(w) r - Q Q' sqrt(w) r with A = QR. One stacked
    qr_r_raw call gives each series a LAPACK call of its own, so its result
    does not depend on the batch; D vanishing on the data factors zeros.
    """
    den = np.matmul(d[:, None, :], vd_t)
    k = swvn_t.shape[1]
    qr = np.empty((len(d), k + 1, swr.shape[1]))
    np.divide(swvn_t, den, out=qr[:, :k])
    qr[:, k] = swr
    finite = np.isfinite(qr).all(axis=(1, 2))
    qr[~finite] = 0.0
    tau = qr_r_raw(qr.transpose(0, 2, 1))  # factors in place
    sse = qr[:, k, k] ** 2
    sse[~finite] = np.inf
    return _Projection(d, den, qr, tau, sse)


def _numerators(at: _Projection) -> np.ndarray:
    """c = R^-1 Q' sqrt(w) r for each series of a projection, NaN where R is singular."""
    k = at.qr.shape[1] - 1
    return solve1(np.triu(at.qr[:, :k, :k].transpose(0, 2, 1)), at.qr[:, k, :k])


def _newton_system(
    at: _Projection, vd: np.ndarray, swr: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tangent bases T, Hessians, damping matrices and gradients at d = at.d.

    The objective is half the projected SSE as a function of u, the move
    d + T u in the plane tangent to d. With K = dresid/du at fixed c and
    G = resid / D times the tangent denominator columns, the exact Hessian is
    the Schur complement of the (c, u) Hessian at c = c(d):
    K'K - 2 K'G - X'X with X = Q'(G - K), since R^-T A' = Q', and one stacked
    qr_reduced call builds every Q from its stored factorization. The damping
    matrix is the diagonal of K'K; it vanishes only where the fitted values
    vanish on every data point.
    """
    k = at.qr.shape[1] - 1
    qaug = qr_reduced(at.qr.transpose(0, 2, 1), at.tau)
    resid = qaug[:, :, k:] * at.qr[:, k : k + 1, k : k + 1]
    basis = _tangent_basis(at.d)
    nq = basis.shape[2]
    vd_u = np.matmul(vd, basis) / at.den.transpose(0, 2, 1)
    k_u = (swr - resid) * vd_u
    g_u = resid * vd_u
    products = np.matmul(k_u.transpose(0, 2, 1), np.concatenate([k_u, g_u, resid], axis=2))
    x = np.matmul(qaug[:, :, :k].transpose(0, 2, 1), g_u - k_u)
    hess = products[:, :, :nq] - 2.0 * products[:, :, nq : 2 * nq]
    hess -= np.matmul(x.transpose(0, 2, 1), x)
    return basis, hess, products[:, :, :nq] * _eye(nq), products[:, :, -1]


def _variable_projection(
    d: np.ndarray, vn: np.ndarray, vd: np.ndarray, r: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton over the unit denominators of a batch of series, with fixed weights.

    Minimizes each series' projected SSE |sqrt(w) r - A(d) c(d)|^2 over moves
    in the plane tangent to d, with the exact Hessian from _newton_system; the
    residuals are not small, so Gauss-Newton alone converges only linearly.
    The trial point is (d + T u) / |d + T u|: m is unchanged by rescaling d.
    Multiplicative damping on the Jacobian product's diagonal: /10 on an
    accepted step, x10 on a rejected one. A step that lowers the SSE by more
    than _EXTRAPOLATE_ABOVE is stretched 2, 4 and 8 times for as long as that
    lowers it further, which crosses the long flat stretches between a
    start and a distant optimum in few steps: the three points of every such
    series are projected in one call, and each takes its longest run of
    falling SSEs. A series stops when its relative SSE change drops below
    SSE_REL_TOL, the Euclidean norm of its step drops below STEP_TOL, its
    damping passes _DAMPING_MAX or the iteration budget runs out.

    Arrays are (batch, points, coef), with zero weights on padding rows. The
    batch moves in lockstep, one step per series per round: the linear
    algebra runs on the stacked arrays, with at most two projections a
    round, and the per-series decisions on lists. Each series keeps its own
    damping and stretches. A series that stops is recorded and frozen: no
    solve, a zero step, never accepted. The held arrays drop the frozen rows
    once at most half still step, the only way out of them. A round where any
    row moved rebuilds every held row's Newton system, the same bits at an
    unchanged d. When every held row improves, the trial arrays are taken
    whole, with the same bits as put/take: 120 `estimate --estimator all`
    calls on short, Table-1, long-tailed and abundance tables take a median
    2.02 s of process time this way and 2.23 s with put/take alone (24
    alternating fresh processes, 2-CPU host).
    Returns per series the final d, c, iterations and converged flag, and a
    singular flag for a series whose damped system could not be solved or
    whose start has D vanishing on the data (other entries then meaningless).
    """
    sw = np.sqrt(w)
    swr = sw * r
    swvn_t = (sw[:, :, None] * vn).transpose(0, 2, 1).copy()
    vd_t = vd.transpose(0, 2, 1).copy()
    at = _project(d.copy(), swvn_t, vd_t, swr)
    size, kd = d.shape
    singular = np.isinf(at.sse)
    if kd == 1:
        return d, _numerators(at), np.zeros(size, dtype=int), ~singular, singular
    d_out, c_out = np.empty_like(d), np.empty((size, vn.shape[2]))
    iterations = np.zeros(size, dtype=int)
    converged = np.zeros(size, dtype=bool)
    held = np.arange(size)  # the series in the arrays below, in order
    stepping = (~singular).nonzero()[0].tolist()  # their positions that still step
    lam = [INITIAL_DAMPING] * size
    moved = True
    for it in range(1, MAX_ITERATIONS + 1):
        if moved:
            basis, hess, damp, grad = _newton_system(at, vd, swr[:, :, None])
        # delta solves (hess + lam damp) delta = grad; the Newton step is -delta.
        # A singular system solves to NaN: its trial SSE is inf, and the series stops.
        lhs = hess + np.array(lam)[:, None, None] * damp
        delta = np.zeros_like(grad)
        delta[stepping] = solve1(lhs[stepping], grad[stepping])
        sq = np.add.reduce(delta * delta, axis=1)
        step = sq.tolist()
        move = np.matmul(basis, delta[:, :, None])[:, :, 0]
        trial = (at.d - move) / np.sqrt(1.0 + sq)[:, None]
        at_trial = _project(trial, swvn_t, vd_t, swr)
        before, after = at.sse.tolist(), at_trial.sse.tolist()
        far = [i for i in stepping if before[i] - after[i] > _EXTRAPOLATE_ABOVE * before[i]]
        if far:
            # the points 2, 4 and 8 times along every far series' step, in one projection
            rows = np.array(far * 3)
            stretch = np.array([2.0, 4.0, 8.0]).repeat(len(far))[:, None]
            point = (at.d[rows] - stretch * move[rows]) / np.sqrt(1.0 + stretch**2 * sq[rows, None])
            at_point = _project(point, swvn_t[rows], vd_t[rows], swr[rows])
            reached = at_point.sse.tolist()
            gain = {}  # a far series' farthest point of its run of falling SSEs
            for first, i in enumerate(far):
                for g in range(first, len(rows), len(far)):
                    if not reached[g] < after[i]:
                        break
                    after[i], gain[i] = reached[g], g
            if gain:
                at_trial.put(list(gain), at_point.take(list(gain.values())))

        moved, going = [], []
        for i in stepping:
            bad = not math.isfinite(step[i])
            if after[i] < before[i]:
                moved.append(i)
                lam[i] = max(lam[i] / _DAMPING_GROWTH, _DAMPING_MIN)
                rel_drop = (before[i] - after[i]) / max(before[i], 1e-300)
                finished = rel_drop < SSE_REL_TOL or step[i] < STEP_TOL**2
            else:
                lam[i] *= _DAMPING_GROWTH
                # cannot improve and the proposed step is negligible: stalled
                # at the optimum
                finished = step[i] < STEP_TOL**2
            if finished or lam[i] > _DAMPING_MAX or bad or it == MAX_ITERATIONS:
                iterations[held[i]] = it
                converged[held[i]] = finished
                singular[held[i]] = bad
            else:
                going.append(i)
        stepping = going
        if len(moved) == len(held):
            at = at_trial
        elif moved:
            at.put(moved, at_trial.take(moved))
        if 2 * len(stepping) <= len(held):
            d_out[held], c_out[held] = at.d, _numerators(at)
            if not stepping:
                break
            held, at = held[stepping], at.take(stepping)
            swvn_t, vd_t, vd, swr = swvn_t[stepping], vd_t[stepping], vd[stepping], swr[stepping]
            lam = [lam[i] for i in stepping]
            stepping, moved = list(range(len(held))), True
    return d_out, c_out, iterations, converged, singular


def _fit_results(
    batch: Sequence[RatioSeries],
    p: int,
    q: int,
    arrays: tuple[np.ndarray, ...],
    iterations: np.ndarray,
    converged: np.ndarray,
) -> list[FitResult | RankDeficiencyError]:
    """Each series' FitResult at its optimum, or the RankDeficiencyError it raises.

    arrays holds the stacked, padded (c, d, w, vn, vd, r) of _fit_rows, with
    the final weights w. The error is raised when the coefficient covariance
    is singular or the denominator vanishes at j = 0.
    """
    c, d, w, vn, vd, r = arrays
    size = len(batch)
    k = p + q + 1
    flip = np.copysign(1.0, d[:, :1])
    c, d = c * flip, d * flip
    m, jac, _ = _model_and_jacobian(c, d, vn, vd)
    residuals = r - m
    sw = np.sqrt(w)
    swres = sw * residuals
    weighted_sse = np.matmul(swres[:, None, :], swres[:, :, None])[:, 0, 0]
    sigma2 = weighted_sse / (np.array([len(series) for series in batch]) - k)

    # chart coordinates: c and the q tangent directions of d
    embed = np.zeros((size, k + 1, k))
    embed[:, : p + 1, : p + 1] = _eye(p + 1)
    embed[:, p + 1 :, p + 1 :] = _tangent_basis(d)
    jw = sw[:, :, None] * np.matmul(jac, embed)
    gram = np.matmul(jw.transpose(0, 2, 1), jw)
    scale = np.sqrt(gram.diagonal(axis1=1, axis2=2))
    outer = scale[:, :, None] * scale[:, None, :]
    # an exactly singular matrix inverts to NaN
    chart_cov = sigma2[:, None, None] * inv(gram / outer) / outer
    singular = ~np.isfinite(chart_cov).all(axis=(1, 2))
    chart_cov = np.matmul(np.matmul(embed, chart_cov), embed.transpose(0, 2, 1))

    # map (c, d) to (beta, alpha) = (c, d[1:]) / d0
    d0 = d[:, :1, None]
    theta = np.concatenate([c, d[:, 1:]], axis=1) / d[:, :1]
    to_theta = np.zeros((size, k, k + 1))
    to_theta[:, :, p + 1] = -theta / d[:, :1]
    to_theta[:, : p + 1, : p + 1] = _eye(p + 1) / d0
    to_theta[:, p + 1 :, p + 2 :] = _eye(q) / d0
    cov = np.matmul(np.matmul(to_theta, chart_cov), to_theta.transpose(0, 2, 1))
    # d0 = 0 makes to_theta, and with it cov, non-finite
    pole = ~np.isfinite(cov).all(axis=(1, 2))
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    cov -= np.minimum(cov.diagonal(axis1=1, axis2=2), 0.0)[:, :, None] * _eye(k)

    out: list[FitResult | RankDeficiencyError] = []
    for i, series in enumerate(batch):
        n = len(series)
        if singular[i]:
            out.append(RankDeficiencyError("coefficient covariance is singular"))
        elif pole[i]:
            out.append(RankDeficiencyError("fitted denominator vanishes at j = 0"))
        else:
            out.append(
                FitResult(
                    model=RationalModel.from_vector(theta[i], p, q),
                    cov=cov[i],
                    residuals=residuals[i, :n],
                    converged=bool(converged[i]),
                    iterations=int(iterations[i]),
                    weighted_sse=float(weighted_sse[i]),
                    weights=w[i, :n],
                    chart=FittingChart(c[i], d[i], chart_cov[i]) if q else None,
                )
            )
    return out


def _fit_rows(
    batch: Sequence[RatioSeries], p: int, q: int, rows: int
) -> list[FitResult | RankDeficiencyError]:
    """fit_wnls for series of at most `rows` points, padded to `rows` and fitted together."""
    size = len(batch)
    j = np.empty((size, rows))
    r = np.empty((size, rows))
    # infinite inverse counts make the padding's weights exactly zero in every pass
    inverse_counts = np.full((size, rows), np.inf)
    for i, series in enumerate(batch):
        n = len(series)
        j[i, :n], j[i, n:] = series.j, series.j[-1]
        r[i, :n], r[i, n:] = series.ratio, series.ratio[-1]
        inverse_counts[i, :n] = 1.0 / series.count_hi + 1.0 / series.count_lo
    vn, vd = _design_matrices(j, p, q)

    # first-pass weights: the first-order ratio variance evaluated at the
    # observed ratios, so the large low-j ratios do not dominate in absolute
    # terms before the fitted ratios are known.
    w = 1.0 / (r**2 * inverse_counts)

    d = np.zeros((size, q + 1))
    d[:, 0] = 1.0
    iterations = np.zeros(size, dtype=int)
    # a series singular in one pass gets NaN weights for the rest, which
    # _project reads as an infinite SSE: it is frozen before its first step
    failed = np.zeros(size, dtype=bool)
    for pass_index in range(REWEIGHT_PASSES):
        if pass_index:
            m = np.matmul(vn, c[:, :, None]) / np.matmul(vd, d[:, :, None])
            w = 1.0 / (np.maximum(np.abs(m[:, :, 0]), _RATIO_FLOOR) ** 2 * inverse_counts)
        w[failed] = np.nan
        d, c, steps, converged, singular = _variable_projection(d, vn, vd, r, w)
        failed |= singular
        iterations += steps
    fits = _fit_results(batch, p, q, (c, d, w, vn, vd, r), iterations, converged)
    return [
        RankDeficiencyError("singular normal equations") if bad else fit
        for bad, fit in zip(failed.tolist(), fits)
    ]


def _fit_batch(
    batch: Sequence[RatioSeries], p: int, q: int
) -> list[FitResult | RankDeficiencyError]:
    """fit_wnls for every series of a batch: one entry per series, the fit or the error it raised.

    Series are grouped by length rounded up to a multiple of _PAD_ROWS and
    each group is fitted in lockstep, padded with zero-weight rows. The
    padding depends only on a series' own length, so every fit is a pure
    function of its series, bit for bit, whatever batch it is fitted in.
    """
    if p < 0 or q < 0:
        raise ValueError("degrees must be nonnegative")
    k = p + q + 1
    groups: dict[int, list[int]] = {}
    for i, series in enumerate(batch):
        n = len(series)
        if n < k + 1:
            raise ValueError(f"need at least {k + 1} points to fit degrees ({p},{q}), got {n}")
        groups.setdefault(-(-n // _PAD_ROWS) * _PAD_ROWS, []).append(i)
    fits: dict[int, FitResult | RankDeficiencyError] = {}
    with np.errstate(all="ignore"):
        for rows, members in groups.items():
            fits.update(zip(members, _fit_rows([batch[i] for i in members], p, q, rows)))
    return [fits[i] for i in range(len(batch))]


def fit_wnls(series: RatioSeries, p: int, q: int) -> FitResult:
    """Fit the (p, q) rational model to a ratio series.

    Runs REWEIGHT_PASSES outer passes of variable projection under the
    first-order ratio-variance weights w_j = 1 / [r_j^2 (1/f_{j+1} + 1/f_j)]:
    the first pass evaluates them at the observed ratios, later passes at the
    current fitted ratios. The first pass starts from D = 1, the weighted
    polynomial fit of r on j; each later pass from the previous optimum. For
    q = 0 each pass is a single weighted linear least-squares solve. The fit
    is _fit_batch's for a batch of one.

    Requires at least p+q+2 points so at least one residual degree of freedom
    remains. Non-convergence is reported through the converged flag, not an
    exception; genuinely singular systems raise RankDeficiencyError, as does
    an optimum whose denominator vanishes at j = 0, which has no (beta, alpha)
    form.
    """
    result = _fit_batch([series], p, q)[0]
    if isinstance(result, RankDeficiencyError):
        raise result
    return result


class DerivedQuantities(NamedTuple):
    beta0_hat: float
    b_hat: float
    var_beta0: float
    var_b: float
    cov_b_beta0: float


def derived_quantities(fit: FitResult) -> DerivedQuantities:
    """The ratio scalar b = m(1) = (sum of beta) / (1 + sum of alpha) with variances.

    b divides f_2 to predict the true singleton count; beta0 = m(0) divides
    f_1 to predict the unseen count. Variances come from first-order
    propagation of the fitting chart's covariance (fit.chart, or cov when the
    fit has no chart) through the gradients of b = N(1)/D(1) and
    1/beta0 = D(0)/N(0) over (c, d), both smooth where beta diverges.
    var_beta0 and cov_b_beta0 are re-expressed for beta0 itself by
    d(1/beta0) = -d(beta0) / beta0^2.
    """
    if not fit.converged:
        raise ValueError("derived quantities require a converged fit")
    model = fit.model
    if fit.chart is None:
        # cov is over (beta, alpha): the chart with d0 held at 1
        c = np.asarray(model.beta, dtype=float)
        d = np.array((1.0,) + model.alpha)
        free = np.r_[0 : model.p + 1, model.p + 2 : model.n_coef + 1]
        cov = np.zeros((model.n_coef + 1, model.n_coef + 1))
        cov[np.ix_(free, free)] = fit.cov
    else:
        c, d, cov = fit.chart
    d_at_1 = float(np.sum(d))
    if d_at_1 == 0.0:
        raise ZeroDivisionError("1 + sum(alpha) vanishes; b is undefined")
    b = float(np.sum(c)) / d_at_1
    beta0 = float(model.beta[0])
    if beta0 == 0.0:
        raise ZeroDivisionError("beta0 vanishes; f0 is undefined")
    grad_b = np.concatenate([np.full(c.size, 1.0 / d_at_1), np.full(d.size, -b / d_at_1)])
    grad_inv = np.zeros(c.size + d.size)
    grad_inv[0] = -d[0] / c[0] ** 2
    grad_inv[c.size] = 1.0 / c[0]
    var_inv = float(grad_inv @ cov @ grad_inv)
    return DerivedQuantities(
        beta0_hat=beta0,
        b_hat=b,
        var_beta0=var_inv * beta0**4,
        var_b=float(grad_b @ cov @ grad_b),
        cov_b_beta0=-float(grad_b @ cov @ grad_inv) * beta0**2,
    )
