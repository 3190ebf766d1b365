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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import OptimizeResult, least_squares, leastsq, nnls
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

def _numeric_jac(family: Family, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    J = np.empty((len(t), len(theta)))
    for j, th in enumerate(theta):
        h = 1e-6 * max(1.0, abs(th))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (curves._eval_values(family, up, t) - curves._eval_values(family, dn, t)) / (2.0 * h)
    return J


class _Separable:
    """A family as amplitudes times columns of its other parameters.

    ``amplitudes`` are the theta positions of the parameters the model is
    linear in, each kept >= 0 where curves.FAMILY_POSITIVE says so. The
    other parameters p are iterated as w = log p where p is positive, else
    w = p; ``box`` names the start-grid range of each (``_ranges``).
    """

    def __init__(self, family: Family, amplitudes: list[int], box: tuple[str, ...]):
        positive = np.array(curves.FAMILY_POSITIVE[family])
        self.family, self.amplitudes, self.box = family, amplitudes, box
        self.nonlinear = [i for i in range(len(positive)) if i not in amplitudes]
        self.nonneg = positive[amplitudes]
        self.logs = positive[self.nonlinear]
        self.unit = np.eye(len(amplitudes))
        self.order = np.argsort(amplitudes + self.nonlinear).tolist()

    def params(self, w: np.ndarray) -> np.ndarray:
        # the clip keeps exp finite when a coordinate runs off
        return np.where(self.logs, np.exp(w.clip(-40.0, 40.0)), w)

    def coords(self, theta: np.ndarray) -> np.ndarray:
        p = theta[self.nonlinear]
        return np.where(self.logs, np.log(np.maximum(p, 1e-12)), p)

    def theta(self, w: np.ndarray, c) -> np.ndarray:
        return np.concatenate([c, self.params(w)])[self.order]

    def design(self, w: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The columns at ``w`` (shape (d,) or (g, d)), shape (m, n) or
        (m, g, n): the family's curve with one amplitude 1, the others 0."""
        unit = self.unit.reshape(self.unit.shape + (1,) * w.ndim)
        p = self.params(w)
        # a polish step passes floats: numpy is slower on 1-element arrays
        parts = [*unit, *(p.T[..., None] if w.ndim > 1 else p.tolist())]
        return curves._eval_values(self.family, [parts[i] for i in self.order], t)

    def solve(self, w: np.ndarray, t: np.ndarray, y: np.ndarray):
        """The columns and the amplitudes at ``w``: closed-form for one or
        two columns, NNLS for the double exponential's three."""
        A = self.design(w, t)
        if len(self.amplitudes) == 3:
            return A, nnls(A.T, y)[0]
        return A, np.array(_amplitudes((A @ A.T).tolist(), (A @ y).tolist(), self.nonneg)[0])


_SEPARABLE = {
    sep.family: sep
    for sep in (
        _Separable(Family.TWO_COMP, [0, 2], ("rate", "rate")),
        _Separable(Family.LOGISTIC, [0], ("offset", "rate")),
        _Separable(Family.BASS, [0], ("rate", "rate")),
        _Separable(Family.BI_LOGISTIC, [0, 3], ("offset", "rate", "offset", "rate")),
        _Separable(Family.DOUBLE_EXP, [0, 1, 3], ("rate", "rate")),
        _Separable(Family.LOGISTIC_BUMP, [0, 3], ("offset", "rate", "center", "width")),
    )
}

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
    first = -b[0] * singles[0] <= -b[1] * singles[1]
    best = where(first, -b[0] * singles[0], -b[1] * singles[1])
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
    coordinates ``pair`` and ``pair + 1``, the others fixed at ``w``."""
    ranges = _ranges(t)
    axes = [np.linspace(*ranges[name], GRID_POINTS) for name in sep.box[pair : pair + 2]]
    W = np.tile(w, (GRID_POINTS**2, 1))
    W[:, pair : pair + 2] = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    A = sep.design(W, t)
    G, b, nonneg, offset = np.einsum("ign,jgn->ijg", A, A), A @ y, sep.nonneg, 0.0
    if len(b) == 3:
        # double exponential: its start does not hold k >= 0, so the constant
        # column is partialled out (the Schur complement of its Gram entry)
        offset = -b[0] ** 2 / G[0, 0]
        b = b[1:] - G[1:, 0] * b[0] / G[0, 0]
        G = G[1:, 1:] - G[1:, :1] * G[:1, 1:] / G[0, 0]
        nonneg = nonneg[1:]
    return W, _amplitudes(G, b, nonneg, np.where)[1] + offset


def _fit_coords(sep: _Separable, t: np.ndarray, y: np.ndarray, init, max_nfev: int) -> OptimizeResult:
    """The coordinates w, polished from ``init`` or from the start rule.

    The two-coordinate families start from the best point of a grid over
    their box; the two-component curve from the best one on each side of
    alpha = beta. The four-coordinate families take their first pair from
    the logistic fit and their second from the three best local minima of
    the grid with the first pair fixed; after those polishes, the first pair
    is taken again from the grid with the second fixed at the best result
    (the components' roles swapped). The best polish wins: MINPACK's
    Levenberg-Marquardt (``_lmdif``), or for the double exponential a
    trust-region solve bounded by its box, which keeps its collapse to one
    exponential cheap. A run that uses up its budget, or whose residuals
    are not finite, is dropped.
    """

    def residual(w):
        A, c = sep.solve(w, t, y)
        return c @ A - y

    def polish(w0):
        if sep.family != Family.DOUBLE_EXP:
            return _lmdif(residual, w0, max_nfev)
        lb, ub = _ranges(t)["rate"]
        return least_squares(residual, np.clip(w0, lb, ub), bounds=(lb, ub), method="trf",
                             xtol=1e-12, ftol=SOLVE_FTOL, gtol=1e-12, max_nfev=max_nfev)

    def grid_best(w, pair, split=False):
        W, val = _grid(sep, t, y, w, pair)
        sides = [W[:, 0] > W[:, 1], W[:, 0] < W[:, 1]] if split else [slice(None)]
        return [W[side][np.argmin(val[side])] for side in sides]

    def polishes():
        if init is not None:
            yield polish(sep.coords(_canonical(sep.family, np.asarray(init, dtype=float))))
        elif len(sep.box) == 2:
            for w0 in grid_best(np.zeros(2), 0, split=sep.family == Family.TWO_COMP):
                yield polish(w0)
        else:
            lead = _fit_coords(_SEPARABLE[Family.LOGISTIC], t, y, None, max_nfev).x
            W, val = _grid(sep, t, y, np.concatenate([lead, lead]), 2)
            V = np.pad(val.reshape(GRID_POINTS, GRID_POINTS), 1, constant_values=np.inf)
            lows = np.flatnonzero(val <= sliding_window_view(V, (3, 3)).min(axis=(2, 3)).ravel())
            firsts = [polish(W[i]) for i in lows[np.argsort(val[lows])][:3]]
            yield from firsts
            yield polish(grid_best(min(firsts, key=lambda r: r.cost).x, 0)[0])

    runs = list(polishes())
    done = [r for r in runs if r.status != 0 and math.isfinite(r.cost)]
    if not done:
        exhausted = sum(r.status == 0 for r in runs)
        raise NonConvergence(f"no start converged for {sep.family.value} "
                             f"({exhausted} of {len(runs)} exhausted the iteration budget)")
    return min(done, key=lambda r: r.cost)


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
    jac: str = "analytic",
) -> FitReport:
    """Fit a curve family to ``series`` by variable projection.

    Every family is linear in its amplitudes (``_SEPARABLE``): only its
    other parameters are iterated, from one start rule (``_fit_coords``),
    and at each step the amplitudes are solved exactly, nonnegative where
    the family requires it. A double-exponential optimum on the edge of its
    region is returned with ``converged=False`` and ``cov_unreliable``. The
    bi-logistic and double-exponential components come back fastest first.

    ``init`` gives a single start: its nonlinear parameters are used and its
    amplitudes are solved again. ``tol`` sets the post-fit stationarity
    criterion: the SSE gradient in the fitting coordinates must satisfy
    ||grad|| < tol * (1 + SSE). ``jac`` selects the Jacobian of the
    covariance sigma2 * (J'J)^-1: analytic for the two-component family
    (``jac="numeric"`` forces central differences), numeric otherwise.

    A J'J condition number beyond 1e12 marks the report ``singular`` (pinv
    covariance, ``cov_unreliable``) rather than failing, except when the fit
    is also exact to machine precision (e.g. a constant series), which raises
    SingularJacobian: such data admit a continuum of perfect fits. Raises
    InsufficientData or NonConvergence (iteration budget exhausted).
    """
    family = Family(family)
    k = curves.family_arity(family)
    t, y = series.times, series.values
    n = len(series)
    if n < k + 1:
        raise InsufficientData(f"need at least {k + 1} points for {family.value}, got {n}")
    if init is not None and len(init) != k:
        raise ValidationError(f"init must have length {k}")

    sep = _SEPARABLE[family]
    res = _fit_coords(sep, t, y, init, max_iter * (k + 1))
    if family == Family.DOUBLE_EXP:
        theta, degenerate = _double_exp_edge(sep, t, y, res.x)
    else:
        theta, degenerate = sep.theta(res.x, sep.solve(res.x, t, y)[1]), False
    theta, nfev = _canonical(family, theta), res.nfev
    fitted = curves._eval_values(family, theta, t)
    e = y - fitted
    sse = float(np.dot(e, e))
    msr = sse / n
    aic = 2.0 * k + n * (math.log(msr) if msr > 0 else -math.inf)
    sigma2 = sse / (n - k)

    if family == Family.TWO_COMP and jac == "analytic":
        J = curves._gradient_values(theta, t)[:, curves.FIT_ORDER]
    else:
        J = _numeric_jac(family, t, theta)
    jtj = J.T @ J
    cond = float(np.linalg.cond(jtj))
    scale = max(1.0, float(np.max(np.abs(y))))
    singular = not np.isfinite(cond) or cond > COND_SINGULAR
    if singular and msr < (1e-8 * scale) ** 2:
        raise SingularJacobian(
            f"J'J condition number {cond:.3g} with an exact fit: the data "
            "admit a continuum of perfect fits (e.g. a constant series)",
            condition=cond,
        )
    if singular:
        cov = sigma2 * np.linalg.pinv(jtj, hermitian=True)
    else:
        cov = sigma2 * np.linalg.inv(jtj)
    cov = 0.5 * (cov + cov.T)

    chain = np.where(curves.FAMILY_POSITIVE[family], theta, 1.0)
    grad = 2.0 * (J * chain).T @ e
    grad_norm = float(np.linalg.norm(grad))
    converged = not degenerate and grad_norm < tol * (1.0 + sse)
    return FitReport(
        family=family,
        theta=theta,
        cov=cov,
        residuals=e,
        sigma2=float(sigma2),
        aic=float(aic),
        converged=bool(converged),
        n_iter=int(nfev),
        jtj_condition=cond,
        cov_unreliable=bool(degenerate or singular or cond > COND_UNRELIABLE),
        grad_norm=grad_norm,
        singular=bool(singular),
    )


def _lmdif(residual, z0: np.ndarray, max_nfev: int) -> OptimizeResult:
    """Levenberg-Marquardt with MINPACK's own forward-difference Jacobian.

    lmdif (``leastsq``) gives the same result every time, unlike lmder
    behind ``least_squares`` with a Python-differenced Jacobian. Its step
    sqrt(eps)*|x| vanishes near x = 0, where the differences drown in
    rounding, so it iterates x = z - z0 + 100 (a ~1.5e-6 step). Returns the
    fields of a ``least_squares`` result; status 0: budget used up.
    """
    shift = np.asarray(z0, dtype=float) - 100.0
    x, _, info, _, ier = leastsq(
        lambda x: residual(x + shift), z0 - shift, full_output=True,
        xtol=1e-12, ftol=SOLVE_FTOL, gtol=1e-12, maxfev=max_nfev,
    )
    f = info["fvec"]
    return OptimizeResult(
        x=x + shift, cost=0.5 * float(f @ f), nfev=int(info["nfev"]), status=int(ier != 5)
    )

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

@dataclass(frozen=True)
class TstarDelta:
    t_star: float
    variance: float
    ci: tuple[float, float]
    level: float


def delta_ci_tstar(fit: FitReport, level: float = 0.95) -> TstarDelta:
    """Delta-method variance and CI for the critical time of a two-component fit.

    variance = grad(t*)' Sigma grad(t*) with the closed-form sensitivities.
    """
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
    flagged.
    """

    intervention_time: float
    window_length_days: int = 10
    min_obs_per_side: int = 6
    max_weekends: int = 1

    def __post_init__(self):
        if self.window_length_days < 10:
            raise ValidationError("window_length_days must be >= 10")
        if self.min_obs_per_side < 1:
            raise ValidationError("min_obs_per_side must be >= 1")


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
    windows per replicate. Deterministic given (inputs, seed).
    """
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
    block_len = max(1, min(block_len, m))
    n_blocks = int(math.ceil(m / block_len))
    starts_max = m - block_len + 1

    rng = np.random.default_rng(seed)
    pairs = []
    failed = 0
    for _ in range(n_boot):
        starts = rng.integers(0, starts_max, size=n_blocks)
        estar = np.concatenate([resid[s : s + block_len] for s in starts])[:m]
        ypre = fitted_pre + estar[: len(pre)]
        ypost = fitted_post + estar[len(pre) :]
        try:
            bp = fit_nls(TimeSeries(pre.times, ypre), Family.TWO_COMP, init=fit_pre.theta)
            ba = fit_nls(TimeSeries(post.times, ypost), Family.TWO_COMP, init=fit_post.theta)
        except RECOVERABLE:
            failed += 1
            continue
        pairs.append((bp.theta[3], ba.theta[3]))
    if len(pairs) < 10:
        raise NonConvergence(f"block bootstrap failed in {failed}/{n_boot} replicates")
    arr = np.asarray(pairs)
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


def _profile_sse(series: TimeSeries, t0: float, start: np.ndarray) -> tuple[float, np.ndarray]:
    """SSE minimized over (alpha, umax, beta) with n0 pinned so that t*(theta) = t0.

    With n0 = (beta*umax/alpha) * exp(t0*(alpha - beta)) the model is umax
    times one column, so only w = (log alpha, log beta) is iterated (from
    ``start``) and umax >= 0 is solved at each w. Returns (SSE, w).
    """
    t, y = series.times, series.values

    def residual(w):
        alpha, beta = np.exp(np.clip(w, -30.0, 30.0))
        a = (beta / alpha) * np.exp(t0 * (alpha - beta) - alpha * t) + 1.0 - np.exp(-beta * t)
        return max(float(a @ y), 0.0) / float(a @ a) * a - y

    res = _lmdif(residual, start, 4000)
    if res.status == 0:
        raise NonConvergence(f"profile fit did not converge at t0={t0}")
    return 2.0 * res.cost, res.x


def profile_ci_tstar(series: TimeSeries, level: float = 0.95, max_steps: int = 400) -> ProfileCI:
    """Invert the profile likelihood in t* by constrained refitting.

    CI = {t0 : n*log(SSE(t0)/SSE_hat) <= chi2_1 quantile}. Grid points where
    the constrained refit fails are skipped and counted.
    """
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

    def walk(direction: int) -> tuple[float, int]:
        start = np.log([theta.alpha, theta.beta])
        prev_t, prev_sse = t_star, sse_hat
        skipped = 0
        for j in range(1, max_steps + 1):
            t0 = t_star + direction * j * step
            if t0 <= step * 1e-3:
                return max(prev_t + direction * step, 0.0), skipped
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
                return prev_t + direction * abs(t0 - prev_t) * frac, skipped
            prev_t, prev_sse = t0, sse
        return prev_t, skipped

    lo, sk_lo = walk(-1)
    hi, sk_hi = walk(+1)
    return ProfileCI(lower=lo, upper=hi, t_star=t_star, level=level, n_skipped=sk_lo + sk_hi)


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
    (requires per-cohort ``se``), a fixed-effects 1/se^2-weighted regression
    is used, the slope variance comes from (X'WX)^-1 directly, and the CI
    uses normal quantiles (variances treated as known).
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
        wgt = 1.0 / np.asarray(se, dtype=float) ** 2
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
    n, k = X.shape
    xtx_inv = np.linalg.inv(X.T @ X)
    coef = xtx_inv @ (X.T @ y)
    e = y - X @ coef
    meat = X.T @ (X * (e**2)[:, None])
    vcov = xtx_inv @ meat @ xtx_inv * (n / max(n - k, 1))
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
        n=n,
    )
