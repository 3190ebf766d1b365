"""Nonlinear least-squares fitting and uncertainty machinery.

Fits every curve family by variable projection: its amplitudes are solved
exactly (nonnegative where the family requires it) at each value of its
other parameters, which start from the best points of a grid over their box
and are polished by Levenberg-Marquardt (the double exponential by a bounded
trust-region solve). Provides delta-method / profile-likelihood / bootstrap
uncertainty for derived quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import least_squares, leastsq, nnls
from scipy.special import gammaincinv, ndtri, stdtrit

from . import curves
from .curves import Family, ThetaTwoComp
from .errors import (
    RECOVERABLE,
    DegenerateDesign,
    DegenerateIdentification,
    InsufficientData,
    NoInteriorExtremum,
    NonConvergence,
    NonMonotoneTime,
    NoPositiveRoot,
    SingularJacobian,
    ValidationError,
    WindowInfeasible,
)

COND_UNRELIABLE = 1e8
COND_SINGULAR = 1e12
#: ftol of the package's least-squares solves: SSEs that differ by less than
#: this relative amount are equal to within the solves' resolution
SOLVE_FTOL = 1e-12
#: the clip of every coordinate iterated in logs, w = log p, which keeps exp(w) finite
_LOG_CLIP = 40.0


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (t, y) observations.

    ``dow`` is an optional per-point day-of-week index (0=Mon .. 6=Sun) used by
    the pre/post windowing rule; ``unit`` is a free-text time unit.
    """

    times: np.ndarray
    values: np.ndarray
    dow: np.ndarray | None = None
    unit: str = "day"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", y)
        if t.ndim != 1 or y.ndim != 1 or len(t) != len(y):
            raise ValidationError("times and values must be 1-d and equally long")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValidationError("times and values must be finite")
        if np.any(np.diff(t) <= 0):
            raise NonMonotoneTime("times must be strictly increasing")
        if self.dow is not None:
            d = np.asarray(self.dow, dtype=int)
            object.__setattr__(self, "dow", d)
            if len(d) != len(t):
                raise ValidationError("dow must have the same length as times")
            if np.any((d < 0) | (d > 6)):
                raise ValidationError("dow entries must lie in 0..6")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class FitReport:
    """Result of a nonlinear least-squares fit.

    ``theta`` follows curves.FAMILY_PARAMS order for the family. ``sigma2`` is
    the dof-corrected residual variance SSE/(n-k) used in ``cov``;
    ``aic = 2k + n*log(mean(residual**2))``.
    """

    family: Family
    theta: np.ndarray
    cov: np.ndarray
    residuals: np.ndarray
    sigma2: float
    aic: float
    converged: bool
    n_iter: int
    jtj_condition: float
    cov_unreliable: bool
    grad_norm: float
    singular: bool = False

    @property
    def sse(self) -> float:
        return float(np.dot(self.residuals, self.residuals))

    def theta_two_comp(self) -> ThetaTwoComp:
        if self.family != Family.TWO_COMP:
            raise ValidationError("not a two-component fit")
        return ThetaTwoComp.from_array(self.theta)

    def to_dict(self) -> dict:
        return {
            "family": self.family.value,
            "theta": self.theta.tolist(),
            "cov": self.cov,
            "residuals": self.residuals.tolist(),
            "sigma2": self.sigma2,
            "aic": self.aic,
            "converged": self.converged,
            "cov_unreliable": self.cov_unreliable,
            "singular": self.singular,
        }


# ---------------------------------------------------------------------------
# fitting by variable projection
# ---------------------------------------------------------------------------

def _jacobian(family: Family, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """d curve / d theta at ``t`` for each row of ``theta`` (shape (B, k)),
    shape (B, n, k): column j is Im f(theta + i*h*e_j) / h, exact to
    rounding because ``curves._eval_values`` is complex-analytic."""
    h, k = 1e-30, theta.shape[1]
    # row i: parameter i of each theta in each of the k steps, a column against t
    steps = theta.T[..., None] + 1j * h * np.eye(k)[:, None]
    return curves._eval_values(family, steps[..., None], t).imag.swapaxes(1, 2) / h


class _Separable:
    """A family as amplitudes times columns of its other parameters.

    ``amplitudes`` are the theta positions of the parameters the model is
    linear in, each kept >= 0 where curves.FAMILY_POSITIVE says so. The
    other parameters p are iterated as w = log p where p is positive, else
    w = p; ``box`` names the start-grid range of each (``_ranges``).
    ``columns(*p, t)`` gives a column per amplitude: a family's curve with
    that amplitude 1 and the others 0, to the bit. ``dcolumns(w, t, A)``,
    where given, is dA/dw from the columns ``A`` at w (the exact Jacobian).
    """

    def __init__(self, family: Family, amplitudes: list[int], box: tuple[str, ...], columns, dcolumns=None):
        positive = np.array(curves.FAMILY_POSITIVE[family])
        self.family, self.amplitudes, self.box = family, amplitudes, box
        self.columns, self.dcolumns = columns, dcolumns
        self.nonlinear = [i for i in range(len(positive)) if i not in amplitudes]
        self.nonneg = positive[amplitudes]
        self.logs = positive[self.nonlinear]
        self.in_logs = np.array(self.nonlinear)[self.logs]  # their theta positions
        self.order = np.argsort(amplitudes + self.nonlinear).tolist()

    def params(self, w: np.ndarray) -> np.ndarray:
        return np.where(self.logs, np.exp(w.clip(-_LOG_CLIP, _LOG_CLIP)), w)

    def coords(self, theta: np.ndarray) -> np.ndarray:
        p = theta[self.nonlinear]
        return np.where(self.logs, np.log(np.maximum(p, np.exp(-_LOG_CLIP))), p)

    def theta(self, w: np.ndarray, c) -> np.ndarray:
        return np.concatenate([c, self.params(w)])[self.order]

    def design(self, w: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The columns at ``w`` (shape (d,) or (g, d)), shape (m, n) or (m, g, n)."""
        p = self.params(w)
        # a polish step passes floats: numpy is slower on 1-element arrays
        return np.array(self.columns(*(p.T[..., None] if w.ndim > 1 else p.tolist()), t))

    def solve(self, w: np.ndarray, t: np.ndarray, y: np.ndarray):
        """The columns and the amplitudes at ``w``: closed-form for one or
        two columns, NNLS for the double exponential's three."""
        A = self.design(w, t)
        if len(self.amplitudes) == 3:
            return A, nnls(A.T, y)[0]
        return A, np.array(_amplitudes((A @ A.T).tolist(), (A @ y).tolist(), self.nonneg)[0])

    def residuals(self, W: np.ndarray, t: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The projected residuals c A - y at the rows of ``W`` (shape (m, d)),
        shape (m, n), for one or two columns: one ``design`` call, and each
        row's products by the BLAS call ``solve`` makes on it, so row r is
        bit-equal to ``solve``'s residual at W[r]."""
        A = np.ascontiguousarray(self.design(W, t).swapaxes(0, 1))  # (m, k, n)
        rows = zip((A @ A.swapaxes(1, 2)).tolist(), (A @ y).tolist())
        c = np.array([_amplitudes(G, b, self.nonneg)[0] for G, b in rows])
        return (c[:, None] @ A)[:, 0] - y


def _vp_jacobian(A: np.ndarray, c: np.ndarray, r: np.ndarray, dA: np.ndarray) -> np.ndarray:
    """The Jacobian (shape (d, n)) of the projected residual r = c A - y in
    the coordinates w, from the columns ``A`` (shape (k, n), k <= 2), their
    amplitudes ``c`` and their derivatives ``dA`` (shape (d, k, n), dA[j] =
    dA/dw_j): J_j = c dA_j - A_S' G_S^-1 (A_S dA_j' c + dA_j,S r) over the
    active columns S (c != 0), G_S = A_S A_S' (Golub & Pereyra 2003,
    *Inverse Problems* 19:R1). An amplitude clipped at 0 stays 0 nearby, so
    its column drops out. The 1 x 1 or 2 x 2 solve is in closed form."""
    S = [i for i, ci in enumerate(c.tolist()) if ci != 0.0]
    D = c @ dA
    if not S:
        return D
    if len(S) < len(c):
        A, dA = A[S], dA[:, S]
    rhs = (D @ A.T + dA @ r).tolist()  # row j: A_S dA_j' c + dA_j,S r
    G = (A @ A.T).tolist()
    if len(S) == 1:
        Z = [[v / G[0][0] for v in row] for row in rhs]
    else:
        (g00, g01), (_, g11) = G
        det = g00 * g11 - g01 * g01
        Z = [[(g11 * u - g01 * v) / det, (g00 * v - g01 * u) / det] for u, v in rhs]
    return D - np.array(Z) @ A


#: A - _ONE is the two-component (exp(-alpha*t), -exp(-beta*t)), column j a function
#: of w_j alone; _PLACE puts its derivative in w_j in row j of dA[j], the other row 0
_PLACE, _ONE = np.eye(2)[..., None], np.array([[0.0], [1.0]])


def _two_comp_dcolumns(w: np.ndarray, t: np.ndarray, A: np.ndarray) -> np.ndarray:
    """dA/dw (shape (2, 2, n), dA[j] = dA/dw_j) from the two-component
    columns ``A`` at ``w``: -alpha*t*exp(-alpha*t) and beta*t*exp(-beta*t),
    0 past the clip, where a rate is constant."""
    rates = [[-math.exp(v) if abs(v) <= _LOG_CLIP else 0.0] for v in w.tolist()]
    return _PLACE * ((A - _ONE) * (t * np.array(rates)))


def _logistic(c, g, t):
    return 1.0 / (1.0 + c * np.exp(-g * t))


def _monotone_cone(beta, gap, t):
    """The nondecreasing two-component curves (alpha >= beta): amplitudes
    >= 0 times u = (1 - exp(-beta*t))/beta and exp(-alpha*t) + alpha*u (the
    rays n0 = 0 and alpha*n0 = beta*umax, over beta) at w = (log beta,
    log(alpha - beta)). Like the free family's columns, u is taken by
    ``expm1``, so the limits keep finite, exact columns at the clip w = -_LOG_CLIP:
    t and exp(-alpha*t) + alpha*t as beta -> 0 (a deep trough's infimum),
    u and 1 as alpha -> beta."""
    u = np.expm1(-beta * t) / -beta
    return [u, np.exp(-(beta + gap) * t) + (beta + gap) * u]


#: each family's columns; a negated one is 0.0 - e, not -e: where e is 0 (an exp
#: underflows), -e is -0.0, while the curve with that amplitude 1 is +0.0
_SEPARABLE = {
    Family.TWO_COMP: _Separable(Family.TWO_COMP, [0, 2], ("rate", "rate"), lambda alpha, beta, t: [
        np.exp(-alpha * t), 0.0 - np.expm1(-beta * t)], _two_comp_dcolumns),
    Family.LOGISTIC: _Separable(Family.LOGISTIC, [0], ("offset", "rate"), lambda c, g, t: [_logistic(c, g, t)]),
    Family.BASS: _Separable(Family.BASS, [0], ("rate", "rate"), lambda p, q, t: [
        (1.0 - (e := np.exp(-(p + q) * t))) / (1.0 + (q / p) * e)]),
    Family.BI_LOGISTIC: _Separable(Family.BI_LOGISTIC, [0, 3], ("offset", "rate", "offset", "rate"),
                                   lambda c1, g1, c2, g2, t: [_logistic(c1, g1, t), _logistic(c2, g2, t)]),
    Family.DOUBLE_EXP: _Separable(Family.DOUBLE_EXP, [0, 1, 3], ("rate", "rate"), lambda r1, r2, t: [
        np.ones_like(e := np.exp(-r1 * t)), 0.0 - e, 0.0 - np.exp(-r2 * t)]),
    Family.LOGISTIC_BUMP: _Separable(Family.LOGISTIC_BUMP, [0, 3], ("offset", "rate", "center", "width"),
                                     lambda c, g, mu, sigma, t: [_logistic(c, g, t),
                                                                 np.exp(-0.5 * ((t - mu) / sigma) ** 2)]),
}

_MONOTONE_CONE = _Separable(Family.TWO_COMP, [0, 2], ("rate", "rate"), _monotone_cone)

#: theta positions (amplitude first, rate last) of interchangeable components
_COMPONENTS = {Family.BI_LOGISTIC: ([0, 1, 2], [3, 4, 5]), Family.DOUBLE_EXP: ([1, 2], [3, 4])}

#: points per coordinate of the start grid
GRID_POINTS = 16


def _ranges(t: np.ndarray) -> dict[str, tuple[float, float]]:
    """Start-grid range by coordinate kind; log c in [-10, 10] puts A(0)/k in (5e-5, 1)."""
    span = max(float(t[-1] - t[0]), 1e-8)
    dt = float(np.min(np.diff(t)))
    return {
        "rate": (math.log(0.01 / span), math.log(3.0 / dt)),
        "offset": (-10.0, 10.0),
        "center": (float(t[0]), float(t[-1])),
        "width": (math.log(dt), math.log(span)),
    }


def _canonical(family: Family, theta: np.ndarray) -> np.ndarray:
    """``theta`` with the components of a symmetric family in canonical
    order: decreasing rate, then increasing amplitude."""
    if family in _COMPONENTS:
        a, b = _COMPONENTS[family]
        if (theta[b[-1]], -theta[b[0]]) > (theta[a[-1]], -theta[a[0]]):
            theta = theta.copy()
            theta[a + b] = theta[b + a]
    return theta


def _amplitudes(G, b, nonneg, where=lambda cond, x, y: x if cond else y):
    """Least-squares amplitudes of one or two columns, each kept >= 0 where
    ``nonneg`` says so, from the Gram entries G[i][j] = a_i'a_j, b[i] = a_i'y.

    The entries are floats, or arrays over a grid with ``where=np.where``.
    Exact: the solution is the unconstrained one when that is feasible and
    better than both one-column solutions (clipped at 0 where nonnegative),
    else the better of those. Returns (amplitudes, SSE - y'y).
    """
    singles = []
    for i, keep in enumerate(nonneg):
        s = b[i] / (G[i][i] + 1e-300)  # a zero column gets 0
        singles.append(where(s > 0.0, s, 0.0) if keep else s)
    if len(b) == 1:
        return singles, -b[0] * singles[0]
    (g00, g01), (_, g11) = G
    gain0, gain1 = -b[0] * singles[0], -b[1] * singles[1]
    first = gain0 <= gain1
    best = where(first, gain0, gain1)
    det = g00 * g11 - g01 * g01
    full = det > 1e-12 * g00 * g11
    det = where(full, det, 1.0)
    c0 = (g11 * b[0] - g01 * b[1]) / det
    c1 = (g00 * b[1] - g01 * b[0]) / det
    v = -(b[0] * c0 + b[1] * c1)
    full = full & (v < best) & ((c0 >= 0.0) | (not nonneg[0])) & ((c1 >= 0.0) | (not nonneg[1]))
    c = [where(full, c0, where(first, singles[0], 0.0)), where(full, c1, where(first, 0.0, singles[1]))]
    return c, where(full, v, best)


def _grid(sep: _Separable, t: np.ndarray, y: np.ndarray, w: np.ndarray, pair: int):
    """Coordinates and SSE - y'y on a GRID_POINTS^2 grid over the box of
    coordinates ``pair`` and ``pair + 1``, the others fixed at ``w``; for
    rows ``y`` of shape (B, n), one column of SSE - y'y per row, each equal
    to that of the row alone (the design and Gram entries are shared)."""
    ranges = _ranges(t)
    axes = [np.linspace(*ranges[name], GRID_POINTS) for name in sep.box[pair : pair + 2]]
    W = np.tile(w, (GRID_POINTS**2, 1))
    W[:, pair : pair + 2] = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    A = sep.design(W, t)
    G, nonneg, offset = np.einsum("ign,jgn->ijg", A, A), sep.nonneg, 0.0
    if y.ndim == 1:
        b = A @ y
    else:
        b, G = np.stack([A @ row for row in y], axis=-1), G[..., None]
    if len(b) == 3:
        # double exponential: its start does not hold k >= 0, so the constant
        # column is partialled out (the Schur complement of its Gram entry)
        offset = -b[0] ** 2 / G[0, 0]
        b = b[1:] - G[1:, 0] * b[0] / G[0, 0]
        G = G[1:, 1:] - G[1:, :1] * G[:1, 1:] / G[0, 0]
        nonneg = nonneg[1:]
    return W, _amplitudes(G, b, nonneg, np.where)[1] + offset


def _grid_best(W: np.ndarray, val: np.ndarray, split: bool) -> list[np.ndarray]:
    """The best point of a ``_grid`` result, or with ``split`` the best on
    each side of w0 = w1 (the two-component curve's alpha = beta); one per
    column of ``val`` when it has one per row."""
    sides = [W[:, 0] > W[:, 1], W[:, 0] < W[:, 1]] if split else [slice(None)]
    return [W[side][np.argmin(val[side], axis=0)] for side in sides]


def _grid_minima(W: np.ndarray, val: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` best 3x3-neighbourhood minima of each column of a
    ``_grid`` result's ``val`` (shape (GRID_POINTS^2, B)), best first and
    equal values in grid order, shape (count, B, 2); and how many each column
    has, at most ``count`` (the points after those are not minima)."""
    V = np.pad(val.reshape(GRID_POINTS, GRID_POINTS, -1), ((1, 1), (1, 1), (0, 0)), constant_values=np.inf)
    lows = val <= sliding_window_view(V, (3, 3), axis=(0, 1)).min(axis=(3, 4)).reshape(val.shape)
    order = np.lexsort((val, ~lows), axis=0)[:count]
    return W[order], np.minimum(lows.sum(axis=0), count)


def _beaten(S, gd, g01, b, best, margin: float = 1.0 + 1e-6, where=lambda cond, x, y: x if cond else y):
    """Whether a start at SSE ``S``, with J'J = [[gd[0], g01], [g01, gd[1]]]
    and J'r = ``b``, is beaten: J'J is nonsingular and its Gauss-Newton model
    minimum S - J'r (J'J)^-1 J'r lies above ``margin`` times ``best``, the
    least SSE of a finished mate (the multistart merit filter; Ugray et al.
    2007, *INFORMS J. Comput.* 19:328). Floats, or arrays over rows with
    ``where=np.where`` (as ``_amplitudes``)."""
    det = gd[0] * gd[1] - g01 * g01
    full = det > 0.0
    quad = gd[1] * b[0] * b[0] - 2.0 * g01 * b[0] * b[1] + gd[0] * b[1] * b[1]
    return full & (S - quad / where(full, det, 1.0) > best * margin)


class _Beaten(Exception):
    """Raised from a polish's Jacobian to stop a start ``_beaten`` by a finished one."""


def _fit_coords(sep: _Separable, t: np.ndarray, y: np.ndarray, starts, max_nfev: int) -> _Polish:
    """The coordinates w, polished from each of ``starts`` (a list of w),
    or from the start rule's starts when ``starts`` is None.

    The two-coordinate families start from the best point of a grid over
    their box; the two-component curve from the best one on each side of
    alpha = beta. The four-coordinate families take their first pair from
    the logistic fit and their second from the three best local minima of
    the grid with the first pair fixed; after those polishes, the first pair
    is taken again from the grid with the second fixed at the best result
    (the components' roles swapped). The best polish wins: MINPACK's
    Levenberg-Marquardt, lmder (``_lmdif``), or for the double exponential
    a trust-region solve bounded by its box, which keeps its collapse to one
    exponential cheap. A separable with closed-form ``dcolumns`` (the
    two-component ``_SEPARABLE`` entry, ``_PinnedTstar``) takes the exact
    Jacobian (``_vp_jacobian``, from the columns of the last evaluation);
    the others (and the monotone cone) take lmdif's forward differences,
    their points evaluated as one batch (``_Separable.residuals``), and
    repeat lmdif's iterates. ``max_nfev`` caps a polish's function plus
    Jacobian evaluations. A run that uses up its budget, or whose residuals
    are not finite, is dropped.

    The lmder polishes run ``_polish_many``'s merit filter (it acts on the
    cold two-component pairs): once a polish has ended certified (status !=
    0, finite SSE), a later start stops at the first Jacobian whose model
    minimum is ``_beaten`` by the least such SSE, and is dropped as beaten
    (not counted as exhausted). So the alpha > beta start, polished first,
    keeps a tie within the 1e-6 margin, and a deep trough's alpha < beta
    start, which cannot win, stops after a few steps.
    """

    last = []  # the columns, amplitudes and residual of the last evaluation
    best = [math.inf]  # the least SSE of a certified polish

    def residual(w):
        if w.ndim > 1:  # the points of a forward-difference Jacobian
            if sep.dcolumns is None:
                return sep.residuals(w, t, y)
            # one by one where the polish has an exact Jacobian: ``_PinnedTstar`` has no batched ``design``
            return np.array([residual(v) for v in w])
        A, c = sep.solve(w, t, y)
        last[:] = A, c, c @ A - y
        return last[2]

    def jacobian(w):
        A, c, r = last
        J = _vp_jacobian(A, c, r, sep.dcolumns(w, t, A))
        if best[0] < math.inf:
            (g00, g01), (_, g11) = (J @ J.T).tolist()
            if _beaten(float(r @ r), (g00, g11), g01, (J @ r).tolist(), best[0]):
                raise _Beaten
        return J

    def polish(w0):
        if sep.family == Family.DOUBLE_EXP:
            lb, ub = _ranges(t)["rate"]
            res = least_squares(residual, np.clip(w0, lb, ub), bounds=(lb, ub), method="trf",
                                xtol=1e-12, ftol=SOLVE_FTOL, gtol=1e-12, max_nfev=max_nfev)
            return _Polish(res.x, float(res.cost), int(res.nfev), int(res.status))
        try:
            res = _lmdif(residual, w0, max_nfev, None if sep.dcolumns is None else jacobian)
        except _Beaten:
            return None
        if res.status != 0 and math.isfinite(res.cost):
            best[0] = min(best[0], 2.0 * res.cost)
        return res

    def grid_best(w, pair, split=False):
        return _grid_best(*_grid(sep, t, y, w, pair), split)

    def polishes():
        if starts is not None:
            yield from map(polish, starts)
        elif len(sep.box) == 2:
            for w0 in grid_best(np.zeros(2), 0, split=sep.family == Family.TWO_COMP):
                yield polish(w0)
        else:
            lead = _fit_coords(_SEPARABLE[Family.LOGISTIC], t, y, None, max_nfev).x
            W, val = _grid(sep, t, y, np.concatenate([lead, lead]), 2)
            minima, k = _grid_minima(W, val[:, None], 3)
            firsts = [polish(w0) for w0 in minima[: k[0], 0]]
            yield from firsts
            yield polish(grid_best(min(firsts, key=lambda r: r.cost).x, 0)[0])

    runs = [r for r in polishes() if r is not None]
    done = [r for r in runs if r.status != 0 and math.isfinite(r.cost)]
    if not done:
        exhausted = sum(r.status == 0 for r in runs)
        raise NonConvergence(f"no start converged for {sep.family.value} "
                             f"({exhausted} of {len(runs)} exhausted the iteration budget)")
    return min(done, key=lambda r: r.cost)


def _cone_free(theta: ThetaTwoComp) -> list[float]:
    """A free fit's cone coordinates, on the alpha = beta limit if alpha <= beta."""
    gap = theta.alpha - theta.beta
    return [math.log(theta.beta), math.log(gap) if gap > 0 else -_LOG_CLIP]


def _monotone_sse_many(t: np.ndarray, Y: np.ndarray, thetas: list[ThetaTwoComp]):
    """The least SSE of a nondecreasing two-component curve for each row of
    ``Y`` (shape (B, n)), from its free fit ``thetas[i]`` (on the alpha = beta
    limit if alpha <= beta) and the two best local minima of its grid. Both
    limits are flat in w: a polish heading for one crawls, a start on one
    gives its value exactly. One ``_polish_many`` over the cone, exact at the
    clip limits, polishes all starts, each with its series' other two as
    mates and margin 1 - 1e-6 (only their least SSE is kept). A row with an
    uncertified start is polished from its own starts by ``_fit_coords``
    (NonConvergence when none ends within 5000 evaluations). A row's numbers
    do not depend on its batch. Returns (SSE, {row: exception raised})."""
    B = len(Y)
    W, val = _grid(_MONOTONE_CONE, t, Y, np.zeros(2), 0)
    minima, k = _grid_minima(W, val, 2)
    starts = np.concatenate([np.array([_cone_free(theta) for theta in thetas])[None], minima])
    # a grid with fewer than two local minima repeats its last start, which changes no minimum
    starts = starts[np.minimum(np.arange(3)[:, None], k), np.arange(B)].transpose(1, 0, 2).reshape(3 * B, 2)
    row = np.arange(3 * B)[:, None]
    mates = row - row % 3 + (row + [[1, 2]]) % 3
    _, S, _, certified = _polish_many(_MONOTONE_CONE, t, np.repeat(Y, 3, axis=0), starts, mates, 1.0 - 1e-6)
    sse, certified = S.reshape(B, 3).min(axis=1), certified.reshape(B, 3).all(axis=1)
    errors = {}
    for i in np.flatnonzero(~certified):
        try:
            own = list(starts[3 * i : 3 * i + 1 + k[i]])  # the repeated start dropped
            sse[i] = 2.0 * _fit_coords(_MONOTONE_CONE, t, Y[i], own, 5000).cost
        except RECOVERABLE as exc:
            errors[int(i)] = exc
    return sse, errors


def _double_exp_edge(sep: _Separable, t: np.ndarray, y: np.ndarray, w: np.ndarray):
    """(theta, on the edge) of a double-exponential optimum, in canonical form.

    Its least-squares infimum often lies on the edge of its region: a rate
    at the box edge, or NNLS zeroing an amplitude. Each rate is snapped to
    its nearest box edge when that raises the SSE by no more than relative
    SOLVE_FTOL, the amplitudes are solved again, and a zero amplitude is
    reported with the other rate.
    """
    lb, ub = _ranges(t)["rate"]

    def sse(w):
        A, c = sep.solve(w, t, y)
        return float(np.sum((c @ A - y) ** 2))

    best, snapped = sse(w), False
    for i in range(2):
        trial = w.copy()
        trial[i] = lb if w[i] - lb < ub - w[i] else ub
        at_edge = sse(trial)
        if at_edge <= best * (1.0 + SOLVE_FTOL):
            w, best, snapped = trial, at_edge, True
    theta = sep.theta(w, sep.solve(w, t, y)[1])
    if theta[1] == 0.0:
        theta[2] = theta[4]
    if theta[3] == 0.0:
        theta[4] = theta[2]
    return theta, snapped or min(theta[[0, 1, 3]]) == 0.0


def fit_nls(
    series: TimeSeries,
    family: Family | str = Family.TWO_COMP,
    init=None,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> FitReport:
    """Fit a curve family to ``series`` by variable projection.

    Every family is linear in its amplitudes (``_SEPARABLE``): only its
    other parameters are iterated, from one start rule (``_fit_coords``),
    and at each step the amplitudes are solved exactly, nonnegative where
    the family requires it; a cold two-component fit stops its second start
    once the first has beaten it (the merit filter). A double-exponential
    optimum on the edge of its region, and a fit of any family with a
    parameter iterated in logs at its clip (``_LOG_CLIP``), is returned with
    ``converged=False`` and ``cov_unreliable``. The bi-logistic and
    double-exponential components come back fastest first.

    ``init`` gives a single start: its nonlinear parameters are used and its
    amplitudes are solved again. ``tol`` sets the post-fit stationarity
    criterion: the SSE gradient in the fitting coordinates must satisfy
    ||grad|| < tol * (1 + SSE). The Jacobian J of that gradient and of the
    covariance sigma2 * (J'J)^-1 is taken by complex step (``_jacobian``),
    exact to rounding for every family.

    A J'J condition number beyond 1e12 marks the report ``singular`` (pinv
    covariance, ``cov_unreliable``) rather than failing, except when the fit
    is also exact to machine precision (e.g. a constant series), which raises
    SingularJacobian: such data admit a continuum of perfect fits. Raises
    InsufficientData, NonConvergence (iteration budget exhausted), or
    ValidationError for ``max_iter`` below 1 or an ``init`` that is not
    finite or has a parameter iterated on the log scale at or below 0.
    """
    family = Family(family)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    k = curves.family_arity(family)
    t, y = series.times, series.values
    n = len(series)
    if n < k + 1:
        raise InsufficientData(f"need at least {k + 1} points for {family.value}, got {n}")
    sep, starts = _SEPARABLE[family], None
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (k,):
            raise ValidationError(f"init must have length {k}")
        if not np.isfinite(init).all() or (init[sep.in_logs] <= 0.0).any():
            names = ", ".join(curves.FAMILY_PARAMS[family][i] for i in sep.in_logs)
            raise ValidationError(f"init must be finite with {names} > 0, got {init.tolist()}")
        starts = [sep.coords(_canonical(family, init))]
    res = _fit_coords(sep, t, y, starts, max_iter * (k + 1))
    if family == Family.DOUBLE_EXP:
        theta, degenerate = _double_exp_edge(sep, t, y, res.x)
    else:
        theta, degenerate = sep.theta(res.x, sep.solve(res.x, t, y)[1]), False
    reports, errors = _fit_reports(family, t, y[None], _canonical(family, theta)[None], [res.nfev],
                                   degenerate, tol)
    if errors:
        raise errors[0]
    return reports[0]


def _fit_reports(family: Family, t: np.ndarray, Y: np.ndarray, Theta: np.ndarray, nfev,
                 degenerate: bool = False, tol: float = 1e-6) -> tuple[list, dict[int, Exception]]:
    """``fit_nls``'s report of each fit ``Theta[i]`` (shape (B, k)) of the row
    ``Y[i]`` (shape (B, n)) on the times ``t``, found in ``nfev[i]``
    evaluations: residuals, AIC, covariance, the flags and the stationarity
    check. A fit on an edge, ``degenerate`` or with a parameter iterated in
    logs at ``_Separable.params``' clip exp(+-_LOG_CLIP) (a rate run off to 0 or
    infinity), is flagged ``converged=False`` and ``cov_unreliable``. The
    Jacobians, J'J, its condition numbers and inverses are taken for all
    rows at once (stacked ``matmul`` and ``np.linalg``), so a row's bytes
    are those of a batch of it alone; the SSE is a dot per row.
    Returns (reports, {row: exception} of the rows that raised, whose report
    is None): SingularJacobian for a singular exact fit, LinAlgError where
    J'J has no singular values (it has a NaN)."""
    (B, k), n = Theta.shape, len(t)
    E = Y - curves._eval_values(family, Theta.T[..., None], t)
    J = _jacobian(family, t, Theta)
    jtj = J.swapaxes(1, 2) @ J
    grad = 2.0 * ((J * np.where(curves.FAMILY_POSITIVE[family], Theta, 1.0)[:, None]).swapaxes(1, 2)
                  @ E[..., None])[..., 0]
    try:
        cond = np.linalg.cond(jtj)
    except np.linalg.LinAlgError:  # a J'J with a NaN fails the whole stack: its row raises alone, below
        cond = np.array([np.nan if np.isnan(m).any() else np.linalg.cond(m) for m in jtj])
    singular = ~(cond <= COND_SINGULAR)  # NaN and inf too
    inv = np.linalg.inv(np.where(singular[:, None, None], np.eye(k), jtj) if singular.any() else jtj)
    sse = np.array([np.dot(e, e) for e in E])
    sigma2, msr = sse / (n - k), sse / n
    P = Theta[:, _SEPARABLE[family].in_logs]
    edge = degenerate | ((P <= math.exp(-_LOG_CLIP) * (1 + 1e-9)) | (P >= math.exp(_LOG_CLIP) * (1 - 1e-9))).any(axis=1)
    errors = {}
    for i in singular.nonzero()[0]:
        try:
            if np.isnan(cond[i]):
                np.linalg.cond(jtj[i])  # raises LinAlgError, as for one fit
            if msr[i] < (1e-8 * max(1.0, float(np.max(np.abs(Y[i]))))) ** 2:
                raise SingularJacobian(
                    f"J'J condition number {cond[i]:.3g} with an exact fit: the data "
                    "admit a continuum of perfect fits (e.g. a constant series)",
                    condition=float(cond[i]),
                )
            inv[i] = np.linalg.pinv(jtj[i], hermitian=True)
        except (SingularJacobian, np.linalg.LinAlgError) as exc:
            errors[int(i)] = exc
    cov = sigma2[:, None, None] * inv
    cov = 0.5 * (cov + cov.swapaxes(1, 2))
    reports = [None] * B
    for i in range(B):
        if i in errors:
            continue
        grad_norm = float(np.linalg.norm(grad[i]))
        reports[i] = FitReport(
            family=family,
            theta=Theta[i],
            cov=cov[i],
            residuals=E[i],
            sigma2=float(sigma2[i]),
            aic=2.0 * k + n * (math.log(msr[i]) if msr[i] > 0 else -math.inf),
            converged=bool(not edge[i] and grad_norm < tol * (1.0 + sse[i])),
            n_iter=int(nfev[i]),
            jtj_condition=float(cond[i]),
            cov_unreliable=bool(edge[i] or singular[i] or cond[i] > COND_UNRELIABLE),
            grad_norm=grad_norm,
            singular=bool(singular[i]),
        )
    return reports, errors


class _Polish(NamedTuple):
    """A polish's end: the coordinates, half the SSE, the evaluations and
    the status (0: budget used up)."""

    x: np.ndarray
    cost: float
    nfev: int
    status: int


class _Spent(Exception):
    """Raised from a polish's callback once lmdif would have stopped on its budget."""


#: lmdif's relative difference step, sqrt(eps)
_FD_STEP = math.sqrt(np.finfo(float).eps)


def _lmdif(residual, z0: np.ndarray, max_nfev: int, jacobian=None) -> _Polish:
    """Levenberg-Marquardt by MINPACK's lmder (``leastsq``), with
    ``jacobian(w)``, the (d, n) Jacobian of ``residual`` at w, or else with
    lmdif's forward-difference Jacobian. ``jacobian`` is only called at the
    w of the last ``residual`` call, so it may reuse that call's work; a
    repeated call at the same point is not evaluated again.

    MINPACK gives the same result every time. lmdif's difference step
    sqrt(eps)*|x| vanishes near x = 0, where the differences drown in
    rounding, so it iterates x = z - z0 + 100 (a ~1.5e-6 step); lmder keeps
    the shift, since its trust radius and xtol scale with ||D x||.

    Without ``jacobian`` the Jacobian is MINPACK fdjac2's: column j is
    (R(x + h_j e_j) - r(x)) / h_j with h_j = sqrt(eps)*|x_j| (sqrt(eps)
    where that is 0), the d points evaluated as one batch (``residual`` of
    shape (d, d) returns (d, n)). lmdif and lmder share their iteration, so
    the polish repeats lmdif's iterates, and its budget counts as lmdif's:
    1 + d at MINPACK's first Jacobian, then d per Jacobian and 1 per
    function call. It stops, status 0, at the first call after the trial
    that brings the count to ``max_nfev`` (lmdif's info 5). With
    ``jacobian``, lmder gets max_nfev // 2 function evaluations, each step
    one of each, and ``nfev`` counts both kinds.
    """
    shift = np.asarray(z0, dtype=float) - 100.0
    key, r, J = None, None, None
    # MINPACK's first Jacobian is the second ``jac`` call: leastsq checks
    # Dfun's shape first. Every function call before it is at z0, every one
    # after it a trial point. The exact path is counted from lmder's info.
    uncounted = 1 if jacobian is None else math.inf
    njev, nfev, spent, here = 0, 0, False, None

    def fun(x):
        nonlocal key, r, J, nfev, spent
        if spent:
            raise _Spent
        if x.tobytes() != key:
            key, r, J = x.tobytes(), residual(x + shift), None
        if njev > uncounted:
            nfev += 1
            spent = nfev >= max_nfev
        return r

    def jac(x):
        nonlocal J, njev, nfev, here
        njev += 1
        if njev > uncounted:
            here = x + shift, r  # lmdif's end once the budget is spent
            if spent:
                raise _Spent
            nfev += len(x) + (njev == 2)
        if J is None:
            if jacobian is not None:
                J = jacobian(x + shift)
            else:
                h = [_FD_STEP * abs(v) or _FD_STEP for v in x.tolist()]
                J = (residual(x + np.diag(h) + shift) - r) / np.array(h)[:, None]
        return J

    try:
        x, _, info, _, ier = leastsq(
            fun, z0 - shift, Dfun=jac, col_deriv=True, full_output=True, xtol=1e-12, ftol=SOLVE_FTOL,
            gtol=1e-12, maxfev=max_nfev if jacobian is None else max(max_nfev // 2, 1),
        )
    except _Spent:
        x, f = here
        return _Polish(x, 0.5 * float(f @ f), nfev, 0)
    f = info["fvec"]
    if jacobian is not None:
        nfev = int(info["nfev"] + info["njev"])
    return _Polish(x + shift, 0.5 * float(f @ f), nfev, int(ier != 5))


#: trial steps per row of ``_polish_many``; a row still active after them is
#: left uncertified, for its caller to refit singly
_BATCH_MAX_ITER = 50


def _lmpar(gd, g01, b, d, delta, par):
    """MINPACK's lmpar for two coordinates, elementwise over the rows (last
    axis) of J'J's diagonal gd and off-diagonal g01, J'f = b, the scaling
    diagonal d, the trust radius ``delta`` and the previous ``par``: par >= 0
    and the step p = -(J'J + par*D^2)^-1 J'f with ||D p|| within 10% of delta,
    or par = 0 and the Gauss-Newton step when that is no longer than
    1.1*delta (along the longer column alone if J'J is singular, as MINPACK's
    pivoted QR does). p is solved in closed form; par follows MINPACK's
    safeguarded Newton iteration on ||D p||^2 = sum_i z_i^2 / (lam_i + par)^2,
    lam the eigenvalues of H = D^-1 J'J D^-1 and z = D^-1 J'f in their basis:
    a few elementwise operations per step, and a row keeps its par once it
    meets a stop test. Returns (par, p), shapes (m,) and (2, m)."""

    def solve(m):  # -[[m0, g01], [g01, m1]]^-1 b, and the determinant
        det = m[0] * m[1] - g01 * g01
        return (g01 * b[::-1] - m[::-1] * b) / det, det

    p, det = solve(gd)
    full = det > 0.0
    singular = not full.all()
    if singular:
        first = gd[0] >= gd[1]
        p = np.where(full, p, np.where(np.array([first, ~first]) & (gd > 0.0), -b / gd, 0.0))
    dxnorm = np.hypot(*(d * p))
    fp = dxnorm - delta
    live = fp > 0.1 * delta
    if not live.any():
        return np.zeros_like(par), p
    dd, hd = d[0] * d[1], gd / (d * d)
    dif, h01 = 0.5 * (hd[0] - hd[1]), g01 / dd
    lam1 = 0.5 * (hd[0] + hd[1]) + np.hypot(dif, h01)
    # the small eigenvalue from det(J'J), which keeps its digits when H is badly scaled
    lam = np.array([np.maximum(det, 0.0) / (dd * dd) / lam1, lam1])
    phi = 0.5 * np.arctan2(h01, dif)
    c, s, g = np.cos(phi), np.sin(phi), b / d
    zz = np.array([c * g[1] - s * g[0], c * g[0] + s * g[1]]) ** 2  # on eigenvectors (-s, c), (c, s)
    paru = np.hypot(*g) / delta
    # the lower bound: the Newton step from par = 0, or 0 when J'J is singular
    w = zz / (lam * lam)
    u = w / lam
    parl = np.where(full, fp / delta * (w[0] + w[1]) / (u[0] + u[1]), 0.0)
    par = np.minimum(np.maximum(par, parl), paru)
    if singular:
        par = np.where(par == 0.0, paru * delta / dxnorm, par)  # ||D^-1 J'f|| / ||D p||
    stepped, tol = live, 0.1 * delta
    for it in range(10):
        r = 1.0 / (lam + par)
        w = zz * r * r
        dx2 = w[0] + w[1]
        last, fp = fp, np.sqrt(dx2) - delta
        live = live & (np.abs(fp) > tol)
        if singular:
            live &= (parl != 0.0) | (fp > last) | (last >= 0.0)
        if it == 9 or not live.any():
            break
        w *= r
        parc = fp / delta * dx2 / (w[0] + w[1])
        np.maximum(parl, par, out=parl, where=fp > 0.0)
        np.minimum(paru, par, out=paru, where=fp < 0.0)
        np.maximum(parl, par + parc, out=par, where=live)
        if singular:
            np.maximum(np.finfo(float).tiny, 0.001 * paru, out=par, where=live & (par == 0.0))
    par = np.where(stepped, par, 0.0)
    return par, np.where(stepped, solve(gd + par * d * d)[0], p)


def _polish_many(sep: _Separable, t: np.ndarray, Y: np.ndarray, w0: np.ndarray, mates=None,
                 margin: float = 1.0 + 1e-6):
    """Levenberg-Marquardt polish of the 2 coordinates of each row of ``Y``
    (shape (B, n), a series per row on the times ``t``) from ``w0`` (shape
    (B, 2), or (2,) for all), for a family with one or two amplitudes: the
    package's one batched LM. It follows MINPACK's lmdif (Moré 1978, *LNM*
    630:105) with ``_lmdif``'s tolerances: column-norm scaling, a trust radius
    with ``_lmpar``'s parameter, the 0.25/0.75 ratio rules, and the ftol
    (SOLVE_FTOL), xtol (1e-12, on ``_lmdif``'s shifted coordinates) and gtol
    (1e-12) tests, with the projected residual's Jacobian by forward
    differences at lmdif's step, evaluated with each trial point (the scalar
    polishes of ``_lmdif`` take it at each accepted point, or the exact one,
    ``_vp_jacobian``, for a separable with closed-form ``dcolumns``;
    ``_two_comp_dcolumns`` would serve a batch too). Every
    operation is elementwise or a sum along a row (``np.einsum``, no BLAS):
    a row's numbers do not depend on its batch, and nothing raises. The
    active rows' state is one array, a row per field, so an iteration makes
    the same numpy calls on 2 rows as on 200.

    A row is certified when it meets one of the three tests; it is not when
    it is still active after ``_BATCH_MAX_ITER`` trial steps, when its SSE or
    step is not finite, or when it is fitted exactly (``fit_nls`` may raise
    SingularJacobian there). Every column is evaluated with ``expm1``, exact
    as a rate goes to 0, so warm, cold and cone rows run one rule.

    Given ``mates`` (shape (B, k): the indices of each row's k group-mates),
    a row retires, certified, once its Gauss-Newton model minimum
    S - J'r (J'J)^-1 J'r is above ``margin`` times the least SSE of its
    certified mates (the multistart merit filter ``_beaten``, which the
    scalar cold fit in ``_fit_coords`` runs too): a row's bytes then depend
    on its mates' as well as its own. The default margin 1 + 1e-6 retires a
    row its mate has beaten, as a caller that picks between the rows needs;
    a caller that keeps only a group's least SSE passes 1 - 1e-6, which also
    retires a row that cannot improve on its mates. Returns (W, SSE, evaluations, certified), shapes
    (B, 2), (B,), (B,) and (B,).
    """
    h = 1.4901161193847656e-06  # lmdif's difference step at x = 100
    neighbours = np.array([[0.0, 0.0], [h, 0.0], [0.0, h]])[:, None, :]

    def evaluate(W, Yr):
        """The 3 x 3 products of (r, J0, J1) at the columns of W, shape (9, m)."""
        m, k = W.shape[1], len(sep.amplitudes)
        A = sep.design((W.T + neighbours).reshape(3 * m, 2), t)
        b = np.einsum("ijmn,mn->ijm", A.reshape(k, 3, m, -1), Yr).reshape(k, 3 * m)
        c = _amplitudes(np.einsum("imn,jmn->ijm", A, A), b, sep.nonneg, np.where)[0]
        R = np.einsum("im,imn->mn", c, A).reshape(3, m, -1) - Yr
        np.subtract(R[1:], R[0], out=R[1:])
        R[1:] /= h
        return np.einsum("imn,jmn->ijm", R, R).reshape(9, m)

    B, n = Y.shape
    W0 = np.array(np.broadcast_to(np.asarray(w0, dtype=float), (B, 2))).T
    with np.errstate(all="ignore"):
        E = evaluate(W0, Y)
        d = np.where(E[4::4] > 0.0, np.sqrt(E[4::4]), 1.0)
        # lmdif iterates x = w - w0 + 100 (``_lmdif``): its radius and xtol scale with ||D x||
        xnorm = np.hypot(*(100.0 * d))
        # a row per field: 0 the row's index, 1-2 W, 3-11 ``evaluate``'s products (3 SSE,
        # 4-5 J'r, 7 and 11 J'J's diagonal, 8 its off-diagonal), 12 xnorm, 13 first (no step
        # accepted yet: the radius follows the step), 14-15 W0, 16-17 D, 18 delta, 19 par, 20 nfev
        X = np.vstack([np.arange(B), W0, E, xnorm, np.ones(B), W0, d, 100.0 * xnorm,
                       np.zeros(B), np.full(B, 3.0)])
        out, certified = X[[1, 2, 3, 20]], np.zeros(B, dtype=bool)
        keep = np.isfinite(E[0])
        X, Yr = X[:, keep], Y[keep]
        for _ in range(_BATCH_MAX_ITER):
            if not len(Yr):
                break
            W, S, b, gd, xnorm, first, W0, d, delta = (
                X[1:3], X[3], X[4:6], X[7:12:4], X[12], X[13], X[14:16], X[16:18], X[18])
            sq = np.sqrt(X[3:12:4])  # ||r||, and the column norms of J
            np.maximum(d, sq[1:], out=d)
            # gtol: the cosine of each column with the residual is at most 1e-12
            stop_g = np.logical_and(*(np.abs(b) <= 1e-12 * sq[0] * sq[1:]))
            par, p = _lmpar(gd, X[8], b, d, delta, X[19])
            pnorm = np.hypot(*(d * p))
            np.minimum(delta, pnorm, out=delta, where=first > 0.0)
            Wt = W + p
            Et = evaluate(Wt, Yr)
            fnorm1 = 0.1 * np.sqrt(Et[0])
            actred = np.where(fnorm1 < sq[0], 1.0 - Et[0] / S, -1.0)
            pGp = p * (gd * p + X[8] * p[::-1])
            t1, t2 = pGp[0] + pGp[1], par * pnorm * pnorm  # ||J p||^2 and par ||D p||^2
            prered, dirder = (t1 + 2.0 * t2) / S, (t1 + t2) / -S
            ratio = np.where(prered != 0.0, actred / prered, 0.0)
            shrink = np.where(actred >= 0.0, 0.5, 0.5 * dirder / (dirder + 0.5 * actred))
            # a low ratio shrinks the radius by f; a high one (or par = 0) sets it to 2 ||D p||, par / 2
            low, grow = ratio <= 0.25, (par == 0.0) | (ratio >= 0.75)
            f = np.where(low, np.where(fnorm1 >= sq[0], 0.1, np.maximum(shrink, 0.1)), grow + 1.0)
            np.multiply(f, np.where(low, np.minimum(delta, pnorm / 0.1), np.where(grow, pnorm, delta)),
                        out=delta)
            np.divide(par, f, out=X[19])
            ok = (ratio >= 1e-4) & ~stop_g
            # an accepted step moves W, its products and xnorm, and clears first
            xt = np.hypot(*(d * (Wt - W0 + 100.0)))
            np.copyto(X[1:13], np.concatenate([Wt, Et, xt[None]]), where=ok)
            first[ok] = 0.0
            X[20] += 3.0
            stop_f = (np.abs(actred) <= SOLVE_FTOL) & (prered <= SOLVE_FTOL) & (ratio <= 2.0)
            done = stop_g | stop_f | (delta <= 1e-12 * xnorm)
            rows = X[0].astype(int)
            if mates is not None:  # the merit filter: retire a row its certified mates have beaten
                certified[rows[done]], out[2, rows[done]] = True, S[done]
                mate = mates[rows]
                best = np.where(certified[mate], out[2, mate], np.inf).min(axis=1)
                done |= _beaten(S, gd, X[8], b, best, margin, np.where)
            keep = np.isfinite(pnorm) & ~done
            if not keep.all():
                out[:, rows], certified[rows[done]] = X[[1, 2, 3, 20]], True
                X, Yr = X[:, keep], Yr[keep]
        out[:, X[0].astype(int)] = X[[1, 2, 3, 20]]  # the rows active after the last step
        certified &= out[2] / n >= (1e-8 * np.maximum(1.0, np.abs(Y).max(axis=-1))) ** 2
    return np.ascontiguousarray(out[:2].T), out[2], out[3].astype(int), certified


def _fit_cold_many(t: np.ndarray, Y: np.ndarray) -> tuple[list, dict[int, str]]:
    """``fit_nls(TimeSeries(t, y), TWO_COMP)`` of each row y of ``Y`` (shape
    (B, n)), as one batch.

    Each row takes ``_fit_coords``'s two grid starts, the best point on each
    side of alpha = beta, and one ``_polish_many`` polishes all 2B of them,
    each the other's mate (a beaten start retires early, as the loser).
    A row with both certified keeps the lower SSE (the alpha > beta side on
    a tie, as ``_fit_coords`` does) and gets ``fit_nls``'s report, all
    such rows as one batch (``_fit_reports``); the others are fit by
    ``fit_nls``. Returns (reports, {row: exception class name} of the rows
    that raised); a row that raised has report None.
    """
    sep = _SEPARABLE[Family.TWO_COMP]
    B, n = Y.shape
    side = np.full(B, -1)  # each row's certified start in the batch; -1: none
    # times that fit_nls refuses go to it, to raise
    if n > curves.family_arity(Family.TWO_COMP) and np.all(np.diff(t) > 0.0) and np.isfinite(t).all():
        starts = np.concatenate(_grid_best(*_grid(sep, t, Y, np.zeros(2), 0), split=True))
        W, S, nfev, certified = _polish_many(sep, t, np.concatenate([Y, Y]), starts,
                                             ((np.arange(2 * B) + B) % (2 * B))[:, None])
        side = np.where(S[B:] < S[:B], np.arange(B, 2 * B), np.arange(B))
        side[~(certified[:B] & certified[B:])] = -1
    reports, errors, rows = [None] * B, {}, np.flatnonzero(side >= 0)
    if len(rows):
        Theta = np.array([sep.theta(W[side[i]], sep.solve(W[side[i]], t, Y[i])[1]) for i in rows])
        batch, raised = _fit_reports(Family.TWO_COMP, t, Y[rows], Theta, nfev[side[rows]])
        errors = {int(rows[j]): type(exc).__name__ for j, exc in raised.items()}
        for i, report in zip(rows, batch):
            reports[i] = report
    for i in np.flatnonzero(side < 0):
        try:
            reports[i] = fit_nls(TimeSeries(t, Y[i]), Family.TWO_COMP)
        except RECOVERABLE as exc:
            errors[int(i)] = type(exc).__name__
    return reports, errors


def _failure_counts(names) -> dict[str, int]:
    """{exception class name: count}, in name order."""
    names = sorted(names)
    return {name: names.count(name) for name in names}


# ---------------------------------------------------------------------------
# boundary-moment identification
# ---------------------------------------------------------------------------

def identify_from_moments(
    a0: float,
    d1: float,
    d2: float,
    umax: float,
    d3: float | None = None,
) -> list[ThetaTwoComp]:
    """Recover rate candidates from boundary moments A(0)=a0, A'(0)=d1, A''(0)=d2.

    Solves n0*(umax-n0)*alpha^2 - 2*n0*d1*alpha - (d1^2 + d2*umax) = 0 and sets
    beta = (d1 + alpha*n0)/umax for each admissible (positive) root. Both roots
    can be admissible; ``d3`` (the third derivative A'''(0) = -alpha^3*n0 +
    beta^3*umax) picks the unique candidate when supplied. Candidates are
    ordered by increasing alpha.

    Raises DegenerateIdentification when umax is indistinguishable from a0 and
    NoPositiveRoot when no admissible candidate exists.
    """
    if a0 < 0 or umax < 0:
        raise ValidationError("levels must be nonnegative")
    if abs(umax - a0) <= 1e-9 * max(1.0, abs(umax)):
        raise DegenerateIdentification(
            f"umax={umax} ~= a0={a0}: the identification quadratic degenerates"
        )
    n0 = a0
    qa = n0 * (umax - n0)
    qb = -2.0 * n0 * d1
    qc = -(d1 * d1 + d2 * umax)
    roots: list[float] = []
    if qa == 0.0:
        if qb != 0.0:
            roots = [-qc / qb]
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc >= 0.0:
            sq = math.sqrt(disc)
            roots = [(-qb + sq) / (2.0 * qa), (-qb - sq) / (2.0 * qa)]
    out: list[ThetaTwoComp] = []
    for alpha in roots:
        if alpha <= 0.0 or not math.isfinite(alpha):
            continue
        beta = (d1 + alpha * n0) / umax
        if beta <= 0.0 or not math.isfinite(beta):
            continue
        out.append(ThetaTwoComp(n0=n0, alpha=alpha, umax=umax, beta=beta))
    if not out:
        raise NoPositiveRoot("no positive (alpha, beta) root reproduces the moments")
    out.sort(key=lambda th: th.alpha)
    if d3 is not None and len(out) > 1:
        def d3_err(th: ThetaTwoComp) -> float:
            return abs(-th.alpha**3 * th.n0 + th.beta**3 * th.umax - d3)

        out = [min(out, key=d3_err)]
    return out


# ---------------------------------------------------------------------------
# delta-method CI for t*
# ---------------------------------------------------------------------------

def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must be in (0, 1), got {level}")


@dataclass(frozen=True)
class TstarDelta:
    t_star: float
    variance: float
    ci: tuple[float, float]
    level: float


def delta_ci_tstar(fit: FitReport, level: float = 0.95) -> TstarDelta:
    """Delta-method variance and CI for the critical time of a two-component fit.

    variance = grad(t*)' Sigma grad(t*) with the closed-form sensitivities.
    Raises ValidationError for a ``level`` outside (0, 1).
    """
    _check_level(level)
    theta = fit.theta_two_comp()
    report = curves.classify_phase(theta)
    if report.t_star is None:
        raise NoInteriorExtremum("fit has no interior extremum; t* CI undefined")
    g = curves.tstar_sensitivities(theta)[curves.FIT_ORDER]
    var = float(g @ fit.cov @ g)
    var = max(var, 0.0)
    z = ndtri(0.5 + level / 2.0)
    half = z * math.sqrt(var)
    return TstarDelta(
        t_star=report.t_star,
        variance=var,
        ci=(report.t_star - half, report.t_star + half),
        level=level,
    )


# ---------------------------------------------------------------------------
# pre/post windowed estimation with block bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowSpec:
    """Preregistered pre/post window rule.

    The smallest integer W >= window_length_days is used that keeps at least
    ``min_obs_per_side`` observations in both [T0-W, T0) and (T0, T0+W] and at
    most ``max_weekends`` weekend pairs per side (adjacent dow 5,6
    observations). Without dow metadata the weekend constraint is skipped and
    flagged. ValidationError for a time that is not finite, a length that is
    not an integer >= 10, ``min_obs_per_side`` < 1 or ``max_weekends`` < 0.
    """

    intervention_time: float
    window_length_days: int = 10
    min_obs_per_side: int = 6
    max_weekends: int = 1

    def __post_init__(self):
        if not math.isfinite(self.intervention_time):
            raise ValidationError(f"intervention_time must be finite, got {self.intervention_time}")
        if not isinstance(self.window_length_days, (int, np.integer)) or self.window_length_days < 10:
            raise ValidationError("window_length_days must be an integer >= 10")
        if self.min_obs_per_side < 1 or self.max_weekends < 0:
            raise ValidationError("min_obs_per_side must be >= 1 and max_weekends >= 0")


@dataclass(frozen=True)
class PrePostReport:
    beta_pre: float
    beta_post: float
    delta_beta: float
    se: float
    ci: tuple[float, float]
    window_used: int
    weekend_rule_applied: bool
    cov_pre_post: float
    n_boot: int
    n_boot_failed: int
    #: failed replicates by exception class name; the counts sum to n_boot_failed
    failures: dict[str, int]
    #: the window's own fit is flagged (not converged, or its covariance
    #: singular or ill-conditioned): its beta and the bootstrap around it
    #: are not to be trusted
    pre_cov_unreliable: bool
    post_cov_unreliable: bool


def _count_weekends(dow: np.ndarray) -> int:
    if len(dow) < 2:
        return 0
    return int(np.sum((dow[:-1] == 5) & (dow[1:] == 6)))


def _select_window(series: TimeSeries, spec: WindowSpec) -> tuple[int, np.ndarray, np.ndarray, bool]:
    t = series.times
    t0 = spec.intervention_time
    max_w = int(math.ceil(max(t0 - t[0], t[-1] - t0))) + 1
    weekend_rule = series.dow is not None
    for w in range(spec.window_length_days, max_w + 1):
        pre = (t >= t0 - w) & (t < t0)
        post = (t > t0) & (t <= t0 + w)
        if pre.sum() < spec.min_obs_per_side or post.sum() < spec.min_obs_per_side:
            continue
        if weekend_rule:
            if _count_weekends(series.dow[pre]) > spec.max_weekends:
                continue
            if _count_weekends(series.dow[post]) > spec.max_weekends:
                continue
        return w, pre, post, weekend_rule
    raise WindowInfeasible(
        f"no window W in [{spec.window_length_days}, {max_w}] satisfies the rule"
    )


def _window_series(series: TimeSeries, mask: np.ndarray) -> TimeSeries:
    t = series.times[mask]
    return TimeSeries(t - t[0], series.values[mask], unit=series.unit)


def _refit_betas(t: np.ndarray, Y: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """beta of the two-component fit to each row of ``Y`` on the times
    ``t``, warm-started at ``theta``: the rows that ``_polish_many``
    certifies from it, the others refit by ``fit_nls(init=theta)``. Returns
    (beta, {row: exception class name} of the refits that failed)."""
    sep = _SEPARABLE[Family.TWO_COMP]
    W, _, _, certified = _polish_many(sep, t, Y, sep.coords(theta))
    beta = sep.params(W)[:, 1]
    errors = {}
    for i in np.flatnonzero(~certified):
        try:
            beta[i] = fit_nls(TimeSeries(t, Y[i]), Family.TWO_COMP, init=theta).theta[3]
        except RECOVERABLE as exc:
            errors[int(i)] = type(exc).__name__
    return beta, errors


def prepost_delta_beta(
    series: TimeSeries,
    spec: WindowSpec,
    block_len: int | None = None,
    n_boot: int = 1000,
    seed=0,
    level: float = 0.95,
) -> PrePostReport:
    """Pre/post growth-rate change with moving-block bootstrap uncertainty.

    Fits the two-component model separately on the selected pre and post
    windows (times re-origined per window), then estimates
    Var(delta_beta) = Var(beta_post) + Var(beta_pre) - 2 Cov by jointly
    resampling blocks of the concatenated residual sequence and refitting both
    windows per replicate. Each window's replicates are refit as one batch,
    warm-started at the window's fit (``_polish_many``); a replicate the
    batch does not certify is refit singly by ``fit_nls(init=...)``. A
    replicate fails when a refit of either window raises; ``failures``
    counts them by exception class. ``pre_cov_unreliable`` and
    ``post_cov_unreliable`` flag a window whose own fit did not converge or
    has an unreliable covariance. Deterministic given (inputs, seed), and
    independent of the batch size. Raises ValidationError before any fit
    when ``n_boot`` < 10, fewer replicates than the variance needs, when
    ``block_len`` < 1, or for a ``level`` outside (0, 1).
    """
    _check_level(level)
    if n_boot < 10:
        raise ValidationError(f"n_boot must be >= 10, got {n_boot}")
    if block_len is not None and block_len < 1:
        raise ValidationError(f"block_len must be >= 1, got {block_len}")
    w, pre_mask, post_mask, weekend_rule = _select_window(series, spec)
    pre = _window_series(series, pre_mask)
    post = _window_series(series, post_mask)
    fit_pre = fit_nls(pre, Family.TWO_COMP)
    fit_post = fit_nls(post, Family.TWO_COMP)
    beta_pre = float(fit_pre.theta[3])
    beta_post = float(fit_post.theta[3])

    # dof-rescale per window: raw residuals from a k-parameter fit understate
    # the noise scale by (n-k)/n, which would shrink the bootstrap variance
    k = curves.family_arity(Family.TWO_COMP)
    scale_pre = math.sqrt(len(pre) / max(len(pre) - k, 1))
    scale_post = math.sqrt(len(post) / max(len(post) - k, 1))
    resid = np.concatenate([fit_pre.residuals * scale_pre, fit_post.residuals * scale_post])
    fitted_pre = pre.values - fit_pre.residuals
    fitted_post = post.values - fit_post.residuals
    m = len(resid)
    if block_len is None:
        block_len = int(math.ceil(m ** (1.0 / 3.0)))
    block_len = min(block_len, m)
    n_blocks = int(math.ceil(m / block_len))
    starts_max = m - block_len + 1

    # one draw of all block starts gives the numbers of a draw per replicate
    starts = np.random.default_rng(seed).integers(0, starts_max, size=(n_boot, n_blocks))
    estar = resid[(starts[:, :, None] + np.arange(block_len)).reshape(n_boot, -1)[:, :m]]
    # a replicate fails with its first window that fails; the post window
    # is refit only for the replicates whose pre window was
    beta_boot_pre, errors = _refit_betas(pre.times, fitted_pre + estar[:, : len(pre)], fit_pre.theta)
    rows = np.array([i for i in range(n_boot) if i not in errors], dtype=int)
    beta_boot_post, post_errors = _refit_betas(
        post.times, fitted_post + estar[rows, len(pre) :], fit_post.theta
    )
    kept = [j for j in range(len(rows)) if j not in post_errors]
    failures = _failure_counts([*errors.values(), *post_errors.values()])
    failed = sum(failures.values())
    if n_boot - failed < 10:
        raise NonConvergence(f"block bootstrap failed in {failed}/{n_boot} replicates")
    arr = np.column_stack([beta_boot_pre[rows[kept]], beta_boot_post[kept]])
    var_pre = float(np.var(arr[:, 0], ddof=1))
    var_post = float(np.var(arr[:, 1], ddof=1))
    cov = float(np.cov(arr[:, 0], arr[:, 1], ddof=1)[0, 1])
    var_delta = max(var_post + var_pre - 2.0 * cov, 0.0)
    se = math.sqrt(var_delta)
    z = ndtri(0.5 + level / 2.0)
    delta = beta_post - beta_pre
    return PrePostReport(
        beta_pre=beta_pre,
        beta_post=beta_post,
        delta_beta=delta,
        se=se,
        ci=(delta - z * se, delta + z * se),
        window_used=w,
        weekend_rule_applied=weekend_rule,
        cov_pre_post=cov,
        n_boot=n_boot,
        n_boot_failed=failed,
        failures=failures,
        pre_cov_unreliable=not fit_pre.converged or fit_pre.cov_unreliable,
        post_cov_unreliable=not fit_post.converged or fit_post.cov_unreliable,
    )


# ---------------------------------------------------------------------------
# profile-likelihood CI for t*
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileCI:
    lower: float
    upper: float
    t_star: float
    level: float
    n_skipped: int
    lower_reached: bool
    upper_reached: bool


class _PinnedTstar(_Separable):
    """The two-component curve pinned to t* = t0, for ``_fit_coords`` alone
    (``solve``, ``dcolumns``): n0 = (beta*umax/alpha) * exp(t0*(alpha -
    beta)) makes it umax >= 0 times one column at w = (log alpha, log beta),
    clipped as ``params``; ``dcolumns`` reuses the terms of the last ``solve``."""

    def __init__(self, t0: float):
        self.family, self.t0 = Family.TWO_COMP, t0

    def solve(self, w: np.ndarray, t: np.ndarray, y: np.ndarray):
        alpha, beta = np.exp(w.clip(-_LOG_CLIP, _LOG_CLIP)).tolist()
        e = self.t0 * (alpha - beta) - alpha * t
        # the fit does not depend on the column's scale: where its square
        # could overflow, it is divided by exp(m), m from its largest exponent
        m = max(float(e[0]) - 300.0, 0.0)
        novelty, utility = (beta / alpha) * np.exp(e - m), np.exp(-m - beta * t)
        a = novelty + math.exp(-m) - utility
        self.terms = alpha, beta, novelty, utility  # the rates and the column's exponential terms
        return a[None], np.array([max(float(a @ y), 0.0) / float(a @ a)])

    def dcolumns(self, w: np.ndarray, t: np.ndarray, A: np.ndarray) -> np.ndarray:
        # the derivatives at a fixed scale exp(-m): a change of scale moves
        # the column along itself, which leaves the residual alone
        alpha, beta, novelty, utility = self.terms
        dA = np.array([[novelty * (alpha * (self.t0 - t) - 1.0)],
                       [novelty * (1.0 - beta * self.t0) + (beta * t) * utility]])
        for j, v in enumerate(w.tolist()):
            if abs(v) > _LOG_CLIP:  # past the clip the rate is constant
                dA[j] = 0.0
        return dA


def _profile_sse(series: TimeSeries, t0: float, start: np.ndarray) -> tuple[float, np.ndarray]:
    """(SSE, w) of ``_PinnedTstar(t0)``, the curve with t* = t0, polished from
    ``start`` by ``_fit_coords`` (NonConvergence past 4000 evaluations)."""
    res = _fit_coords(_PinnedTstar(t0), series.times, series.values, [start], 4000)
    return 2.0 * res.cost, res.x


def profile_ci_tstar(series: TimeSeries, level: float = 0.95, max_steps: int = 400) -> ProfileCI:
    """Invert the profile likelihood in t* by constrained refitting.

    CI = {t0 : n*log(SSE(t0)/SSE_hat) <= chi2_1 quantile}, walked in steps
    of 5% of t* by ``_profile_sse`` refits, each warm-started at the last. A
    bound not found within ``max_steps`` steps, or clipped at t = 0, is
    flagged not reached; steps whose refit fails are skipped and counted.
    Raises ValidationError before any fit for a ``level`` outside (0, 1) or
    ``max_steps`` < 1.
    """
    _check_level(level)
    if max_steps < 1:
        raise ValidationError(f"max_steps must be >= 1, got {max_steps}")
    fit = fit_nls(series, Family.TWO_COMP)
    theta = fit.theta_two_comp()
    report = curves.classify_phase(theta)
    if report.t_star is None:
        raise NoInteriorExtremum("series fit has no interior extremum")
    t_star = report.t_star
    n = len(series)
    sse_hat = fit.sse
    threshold = sse_hat * math.exp(2.0 * gammaincinv(0.5, level) / n)
    step = max(t_star, 1e-3) * 0.05

    def walk(direction: int) -> tuple[float, int, bool]:
        start = np.log([theta.alpha, theta.beta])
        prev_t, prev_sse = t_star, sse_hat
        skipped = 0
        for j in range(1, max_steps + 1):
            t0 = t_star + direction * j * step
            if t0 <= step * 1e-3:
                return 0.0, skipped, False
            try:
                sse, start = _profile_sse(series, t0, start)
            except NonConvergence:
                skipped += 1
                continue
            if sse >= threshold:
                if sse > prev_sse:
                    frac = (threshold - prev_sse) / (sse - prev_sse)
                else:
                    frac = 1.0
                return prev_t + direction * abs(t0 - prev_t) * frac, skipped, True
            prev_t, prev_sse = t0, sse
        return prev_t, skipped, False

    lo, sk_lo, lo_reached = walk(-1)
    hi, sk_hi, hi_reached = walk(+1)
    return ProfileCI(lo, hi, t_star, level, sk_lo + sk_hi, lo_reached, hi_reached)


# ---------------------------------------------------------------------------
# cohort and panel regressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    se: float
    ci: tuple[float, float]
    t_stat: float
    n: int


def embedding_gradient(
    e,
    beta_hat,
    se=None,
    level: float = 0.95,
    weighted: bool = False,
) -> SlopeFit:
    """OLS slope of cohort growth rates on the embedding factor.

    The default is unweighted OLS with a normal-theory CI (t quantiles with
    n-2 dof, since the error variance is estimated). With ``weighted=True``
    (requires per-cohort ``se``, each finite and > 0; ValidationError
    otherwise), a fixed-effects 1/se^2-weighted regression is used, the
    slope variance comes from (X'WX)^-1 directly, and the CI uses normal
    quantiles (variances treated as known).
    """
    e = np.asarray(e, dtype=float)
    b = np.asarray(beta_hat, dtype=float)
    if e.shape != b.shape or e.ndim != 1 or len(e) < 2:
        raise ValidationError("need >= 2 cohorts with matching e and beta_hat")
    if np.ptp(e) == 0.0:
        raise DegenerateDesign("all embedding values are equal")
    X = np.column_stack([np.ones_like(e), e])
    if weighted:
        if se is None:
            raise ValidationError("weighted=True requires per-cohort se")
        se = np.asarray(se, dtype=float)
        if se.shape != e.shape or not np.all(np.isfinite(se) & (se > 0.0)):
            raise ValidationError("weighted=True needs one finite se > 0 per cohort")
        wgt = 1.0 / se**2
        xtwx = X.T @ (X * wgt[:, None])
        coef = np.linalg.solve(xtwx, X.T @ (wgt * b))
        var_slope = float(np.linalg.inv(xtwx)[1, 1])
        z = ndtri(0.5 + level / 2.0)
    else:
        coef, *_ = np.linalg.lstsq(X, b, rcond=None)
        resid = b - X @ coef
        dof = len(e) - 2
        s2 = float(resid @ resid) / dof if dof > 0 else 0.0
        sxx = float(np.sum((e - e.mean()) ** 2))
        var_slope = s2 / sxx
        z = stdtrit(dof, 0.5 + level / 2.0) if dof > 0 else ndtri(0.5 + level / 2.0)
    se_slope = math.sqrt(var_slope)
    slope = float(coef[1])
    t_stat = slope / se_slope if se_slope > 0 else math.copysign(math.inf, slope or 1.0)
    return SlopeFit(
        slope=slope,
        intercept=float(coef[0]),
        se=se_slope,
        ci=(slope - z * se_slope, slope + z * se_slope),
        t_stat=t_stat,
        n=len(e),
    )


def estimate_hprime0(delta_beta, delta_v, controls=None, level: float = 0.95) -> SlopeFit:
    """Hazard slope at zero from panel increments.

    OLS of delta_beta on delta_v with controls partialled out and an HC1
    heteroskedasticity-robust standard error.
    """
    y = np.asarray(delta_beta, dtype=float)
    v = np.asarray(delta_v, dtype=float)
    if y.shape != v.shape or y.ndim != 1 or len(y) < 2:
        raise ValidationError("need >= 2 panel observations")
    cols = [np.ones_like(v), v]
    if controls is not None:
        c = np.atleast_2d(np.asarray(controls, dtype=float))
        if c.shape[0] != len(y):
            c = c.T
        cols.extend(c.T)
    X = np.column_stack(cols)
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise DegenerateDesign("design matrix is rank deficient (no usable delta_v variation)")
    coef, vcov = _ols_hc1(X, y)
    se_h = math.sqrt(max(float(vcov[1, 1]), 0.0))
    z = ndtri(0.5 + level / 2.0)
    h = float(coef[1])
    t_stat = h / se_h if se_h > 0 else math.copysign(math.inf, h or 1.0)
    return SlopeFit(
        slope=h,
        intercept=float(coef[0]),
        se=se_h,
        ci=(h - z * se_h, h + z * se_h),
        t_stat=t_stat,
        n=len(y),
    )


def _ols_hc1(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS coefficients of ``y`` on the full-rank ``X`` and their HC1
    (heteroskedasticity-robust, n/(n-k)-scaled) covariance."""
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    coef = xtx_inv @ (X.T @ y)
    meat = X.T @ (X * ((y - X @ coef) ** 2)[:, None])
    return coef, xtx_inv @ meat @ xtx_inv * (n / max(n - k, 1))
