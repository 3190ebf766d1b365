"""Nonlinear least-squares fitting and uncertainty machinery.

Fits the curve families by Levenberg-Marquardt on log-reparameterized
positive parameters (the bump amplitude and center stay unconstrained) and the
double exponential by variable projection in a bounded, ordered rate box,
seeds the two-component fit from the boundary-moment identification result,
and provides delta-method / profile-likelihood / bootstrap uncertainty for
derived quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
# model evaluation in fitting order
# ---------------------------------------------------------------------------

def _model(family: Family, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return curves._eval_values(family, theta, t)


def _jac_two_comp(t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Analytic Jacobian in fitting order (n0, alpha, umax, beta)."""
    n0, alpha, umax, beta = theta
    ea = np.exp(-alpha * t)
    eb = np.exp(-beta * t)
    return np.column_stack([ea, -n0 * t * ea, 1.0 - eb, umax * t * eb])


def _numeric_jac(family: Family, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    J = np.empty((len(t), len(theta)))
    for j, th in enumerate(theta):
        h = 1e-6 * max(1.0, abs(th))
        up = theta.copy()
        dn = theta.copy()
        up[j] += h
        dn[j] -= h
        J[:, j] = (_model(family, t, up) - _model(family, t, dn)) / (2.0 * h)
    return J


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _logistic_init(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    k = 1.05 * max(float(np.max(y)), 1e-8)
    yy = np.clip(y, 1e-6 * k, (1.0 - 1e-6) * k)
    z = np.log(yy / (k - yy))
    slope, intercept = np.polyfit(t, z, 1)
    g = max(float(slope), 1e-8)
    c = float(np.exp(-intercept))
    return np.array([k, max(c, 1e-8), g])


def _init_candidates(family: Family, t: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    span = max(float(t[-1] - t[0]), 1e-8)
    scale = max(float(np.max(np.abs(y))), 1e-8)
    if family == Family.TWO_COMP:
        n0 = max(float(y[0]), 1e-2 * scale)
        umax = max(float(y[-1]), 1e-2 * scale)
        cands: list[np.ndarray] = []
        m = min(6, len(t))
        coef = np.polyfit(t[:m] - t[0], y[:m], 2)
        d1, d2 = float(coef[1]), 2.0 * float(coef[0])
        try:
            for th in identify_from_moments(n0, d1, d2, umax):
                cands.append(np.array([n0, th.alpha, umax, th.beta]))
        except (DegenerateIdentification, NoPositiveRoot):
            pass
        cands.append(np.array([n0, 1.0, umax, 0.1]))
        cands.append(np.array([n0, 4.0 / span, umax, 1.0 / span]))
        return cands
    if family == Family.LOGISTIC:
        return [_logistic_init(t, y)]
    if family == Family.BASS:
        k, c, g = _logistic_init(t, y)
        return [
            np.array([k, g / (1.0 + c), g * c / (1.0 + c)]),
            np.array([k, 0.5 / span, 5.0 / span]),
        ]
    if family == Family.BI_LOGISTIC:
        k, c, g = _logistic_init(t, y)
        return [
            np.array([0.6 * k, c, 1.6 * g, 0.45 * k, max(3.0 * c, 5.0), 0.5 * g]),
            np.array([0.5 * k, max(c, 1.0), 2.0 * g, 0.55 * k, 10.0, 0.8 * g]),
        ]
    if family == Family.DOUBLE_EXP:
        k = 1.05 * max(float(np.max(y)), 1e-8)
        _, _, g = _logistic_init(t, y)
        b_total = max(k - float(y[0]), 0.05 * k)
        return [
            np.array([k, 0.7 * b_total, 2.0 * g, 0.3 * b_total, 0.5 * g]),
            np.array([k, 0.5 * b_total, 4.0 / span, 0.5 * b_total, 1.0 / span]),
        ]
    if family == Family.LOGISTIC_BUMP:
        base = _logistic_init(t, y)
        try:
            inner = fit_nls(TimeSeries(t, y), Family.LOGISTIC)
            base = inner.theta
            resid = inner.residuals
        except RECOVERABLE:
            resid = y - _model(Family.LOGISTIC, t, base)
        # seed the bump on the smoothed residual extremum: the raw extremum
        # chases noise, which collapses the bump (s -> 0) into an
        # unidentified optimum
        w = max(3, len(t) // 8)
        kernel = np.ones(w) / w
        smoothed = np.convolve(resid, kernel, mode="same")
        idx = int(np.argmax(np.abs(smoothed)))
        s0 = float(smoothed[idx])
        if s0 == 0.0:
            s0 = 0.05 * scale
        mu0 = float(t[idx])
        return [
            np.array([base[0], base[1], base[2], s0, mu0, max(span / 10.0, 1e-3)]),
            np.array([base[0], base[1], base[2], s0, mu0, max(span / 20.0, 1e-3)]),
        ]
    raise ValidationError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def _to_z(theta: np.ndarray, positive: np.ndarray) -> np.ndarray:
    z = np.array(theta, dtype=float)
    z[positive] = np.log(np.maximum(z[positive], 1e-12))
    return z


def _from_z(z: np.ndarray, positive: np.ndarray) -> np.ndarray:
    theta = np.array(z, dtype=float)
    theta[positive] = np.exp(np.clip(theta[positive], -40.0, 40.0))
    return theta


def fit_nls(
    series: TimeSeries,
    family: Family | str = Family.TWO_COMP,
    init=None,
    max_iter: int = 1000,
    tol: float = 1e-6,
    jac: str = "analytic",
) -> FitReport:
    """Fit a curve family to ``series`` by log-reparameterized LM.

    The double exponential is fitted by variable projection instead (see
    ``_fit_double_exp``); a fit whose optimum lies on the edge of its
    region is returned with ``converged=False`` and ``cov_unreliable``.
    The families without an analytic Jacobian (all but the two-component
    curve, or it with ``jac="numeric"``) use MINPACK's forward differences
    (``_lmdif``). ``init`` overrides the default (moment-seeded,
    deterministic) start candidates. ``tol`` sets the post-fit stationarity
    criterion: the SSE gradient in the fitting coordinates must satisfy
    ||grad|| < tol * (1 + SSE). The covariance is sigma2 * (J'J)^-1 with the
    analytic Jacobian for the two-component family (``jac="numeric"`` forces
    central differences) and a numeric Jacobian otherwise.

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
    positive = np.array(curves.FAMILY_POSITIVE[family])

    if init is not None:
        cands = [np.asarray(init, dtype=float)]
        if len(cands[0]) != k:
            raise ValidationError(f"init must have length {k}")
    else:
        cands = _init_candidates(family, t, y)

    use_analytic = family == Family.TWO_COMP and jac == "analytic"
    max_nfev = max_iter * (k + 1)
    if family == Family.DOUBLE_EXP:
        theta, nfev, degenerate = _fit_double_exp(t, y, cands, max_nfev)
    else:
        def residual(z):
            return _model(family, t, _from_z(z, positive)) - y

        def jac_z(z):
            theta = _from_z(z, positive)
            J = _jac_two_comp(t, theta)
            chain = np.where(positive, theta, 1.0)
            return J * chain

        def runs():
            for cand in cands:
                z0 = _to_z(cand, positive)
                if not use_analytic:
                    yield _lmdif(residual, z0, max_nfev)
                    continue
                try:
                    res = least_squares(
                        residual,
                        z0,
                        jac=jac_z,
                        method="lm",
                        xtol=1e-12,
                        ftol=SOLVE_FTOL,
                        gtol=1e-12,
                        max_nfev=max_nfev,
                    )
                except Exception:
                    continue
                yield res

        res = _best_run(family, runs())
        theta, nfev, degenerate = _from_z(res.x, positive), res.nfev, False
    fitted = _model(family, t, theta)
    e = y - fitted
    sse = float(np.dot(e, e))
    msr = sse / n
    aic = 2.0 * k + n * (math.log(msr) if msr > 0 else -math.inf)
    sigma2 = sse / (n - k)

    if use_analytic:
        J = _jac_two_comp(t, theta)
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

    chain = np.where(positive, theta, 1.0)
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

    ``least_squares(method="lm", jac="2-point")`` runs MINPACK's lmder on a
    Jacobian differenced in Python, and its result depends on the content of
    freed heap memory: a fit in a flat valley (logisticbump on enterprise78)
    then stops at a different point from one process to the next. lmdif,
    reached through ``leastsq``, gives the same result every time. Returns
    the fields of a ``least_squares`` result that ``_best_run`` reads;
    status 0 means the evaluation budget was used up.
    """
    x, _, info, _, ier = leastsq(
        residual, z0, full_output=True, xtol=1e-12, ftol=SOLVE_FTOL, gtol=1e-12, maxfev=max_nfev
    )
    f = info["fvec"]
    return OptimizeResult(
        x=x, cost=0.5 * float(f @ f), nfev=int(info["nfev"]), status=int(ier != 5)
    )


def _best_run(family: Family, runs) -> OptimizeResult:
    """The lowest-cost solver result; a run that used up its budget, or whose
    residuals are not finite, is dropped."""
    best = None
    exhausted = 0
    for res in runs:
        if res.status == 0:
            exhausted += 1
        elif math.isfinite(res.cost) and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise NonConvergence(
            f"no start converged for {family.value}"
            + (f" ({exhausted} exhausted the iteration budget)" if exhausted else "")
        )
    return best


def _fit_double_exp(
    t: np.ndarray, y: np.ndarray, cands: list[np.ndarray], max_nfev: int
) -> tuple[np.ndarray, int, bool]:
    """Fit k - b1*exp(-r1 t) - b2*exp(-r2 t) by variable projection.

    The model is linear in (k, b1, b2), so only w = (log r2, log(r1 - r2))
    is iterated, by one bounded trust-region solve per start; ordering the
    rates (r1 > r2) removes the label symmetry. At each w the amplitudes are
    the 3-column NNLS solution, nonnegative by construction. Both r2 and
    r1 - r2 stay in the box [0.01/span, 10/min dt] tied to the design. The
    starts are the rate pairs of ``cands``, ordered and clipped into the box.

    The family's least-squares infimum often lies on the edge of this
    region (a rate at the box edge, or NNLS zeroing an amplitude); such a
    fit is returned in a canonical form and flagged ``degenerate``. Each
    rate coordinate is snapped to its nearest box edge when that does not
    raise the SSE beyond the solve's resolution (relative SOLVE_FTOL), and
    the amplitudes are solved again; a zeroed amplitude is reported as 0.0
    with its rate set to the other rate. Returns (theta, nfev of the winning
    start, degenerate). Raises NonConvergence when every start uses up
    ``max_nfev``.
    """
    span = max(float(t[-1] - t[0]), 1e-8)
    lb = math.log(0.01 / span)
    ub = math.log(10.0 / float(np.min(np.diff(t))))

    def solve(w):
        r2 = math.exp(w[0])
        r1 = r2 + math.exp(w[1])
        basis = np.column_stack([np.ones_like(t), -np.exp(-r1 * t), -np.exp(-r2 * t)])
        c, _ = nnls(basis, y)
        return c, r1, r2, basis @ c - y

    def sse(w):
        e = solve(w)[3]
        return float(e @ e)

    def runs():
        for cand in cands:
            r1, r2 = max(cand[2], cand[4]), min(cand[2], cand[4])
            w0 = np.clip(np.log(np.maximum([r2, r1 - r2], 1e-300)), lb, ub)
            yield least_squares(
                lambda w: solve(w)[3],
                w0,
                bounds=(lb, ub),
                method="trf",
                xtol=1e-12,
                ftol=SOLVE_FTOL,
                gtol=1e-12,
                max_nfev=max_nfev,
            )

    res = _best_run(Family.DOUBLE_EXP, runs())
    w = res.x.copy()
    best = sse(w)
    snapped = False
    for i in range(2):
        trial = w.copy()
        trial[i] = lb if w[i] - lb < ub - w[i] else ub
        at_edge = sse(trial)
        if at_edge <= best * (1.0 + SOLVE_FTOL):
            w, best, snapped = trial, at_edge, True
    (k, b1, b2), r1, r2, _ = solve(w)
    if b1 == 0.0:
        r1 = r2
    if b2 == 0.0:
        r2 = r1
    degenerate = snapped or min(k, b1, b2) == 0.0
    return np.array([k, b1, r1, b2, r2]), int(res.nfev), degenerate


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
    g = curves.tstar_sensitivities(theta)  # (alpha, beta, n0, umax)
    g_fit = np.array([g[2], g[0], g[3], g[1]])  # -> (n0, alpha, umax, beta)
    var = float(g_fit @ fit.cov @ g_fit)
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
    """SSE minimized over (alpha, umax, beta) with n0 pinned so that t*(theta) = t0."""
    t, y = series.times, series.values

    def unpack(z):
        alpha, umax, beta = np.exp(np.clip(z, -30.0, 30.0))
        n0 = (beta * umax / alpha) * math.exp(t0 * (alpha - beta))
        return n0, alpha, umax, beta

    def residual(z):
        n0, alpha, umax, beta = unpack(z)
        return n0 * np.exp(-alpha * t) + umax * (1.0 - np.exp(-beta * t)) - y

    res = least_squares(residual, np.log(start), method="lm", xtol=1e-12, ftol=1e-12, max_nfev=4000)
    if res.status == 0:
        raise NonConvergence(f"profile fit did not converge at t0={t0}")
    return 2.0 * res.cost, np.exp(res.x)


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
        start = np.array([theta.alpha, theta.umax, theta.beta])
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
