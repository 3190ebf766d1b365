"""Residual diagnostics and model-comparison tests.

Durbin-Watson, Breusch-Pagan (F variant), Schwarz-corrected Vuong,
boundary-constrained likelihood ratio (monotone vs trough within the
two-component family), and a nonparametric shape test against monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares
from scipy.special import chdtrc, fdtrc, ndtr

from . import curves, estimate
from .curves import Family
from .errors import (
    DegenerateRegressor,
    NonConvergence,
    TooShort,
    ValidationError,
    ZeroResidualNorm,
    ZeroVariance,
)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float | None
    decision_at_05: bool
    method: str


def durbin_watson(residuals) -> TestResult:
    """DW = sum (e_i - e_{i-1})^2 / sum e_i^2, in [0, 4]; no p-value.

    decision_at_05 flags DW outside the rule-of-thumb band [1.5, 2.5].
    """
    e = np.asarray(residuals, dtype=float)
    if e.ndim != 1 or len(e) < 2:
        raise ValidationError("need at least 2 residuals")
    denom = float(np.dot(e, e))
    if denom == 0.0:
        raise ZeroResidualNorm("residuals are identically zero")
    dw = float(np.sum(np.diff(e) ** 2) / denom)
    return TestResult(
        statistic=dw,
        p_value=None,
        decision_at_05=not (1.5 <= dw <= 2.5),
        method="Durbin-Watson; ~2 means no lag-1 autocorrelation, "
        "rule-of-thumb concern band outside [1.5, 2.5]",
    )


def breusch_pagan(residuals, regressor) -> TestResult:
    """Breusch-Pagan heteroskedasticity test, F variant.

    Auxiliary regression of squared residuals on [1, t]; the F statistic for
    the regressor's explanatory power with (1, n-2) dof.
    """
    e = np.asarray(residuals, dtype=float)
    t = np.asarray(regressor, dtype=float)
    if e.shape != t.shape or e.ndim != 1 or len(e) < 3:
        raise ValidationError("need >= 3 matching residuals and regressor points")
    if np.ptp(t) == 0.0:
        raise DegenerateRegressor("regressor has no variation")
    y = e**2
    X = np.column_stack([np.ones_like(t), t])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    yhat = X @ coef
    ssr = float(np.sum((yhat - y.mean()) ** 2))
    sse = float(np.sum((y - yhat) ** 2))
    n = len(e)
    if sse == 0.0:
        f_stat = math.inf if ssr > 0 else 0.0
        p = 0.0 if ssr > 0 else 1.0
    else:
        f_stat = ssr / (sse / (n - 2))
        p = float(fdtrc(1, n - 2, f_stat))
    return TestResult(
        statistic=f_stat,
        p_value=p,
        decision_at_05=p < 0.05,
        method="Breusch-Pagan F test, squared residuals on [1, t]",
    )


def gaussian_pointwise_loglik(fit: estimate.FitReport) -> np.ndarray:
    """Per-observation Gaussian log-likelihoods at the MLE variance SSE/n."""
    e = fit.residuals
    s2 = float(np.mean(e**2))
    if s2 <= 0:
        raise ZeroResidualNorm("perfect fit has a degenerate Gaussian likelihood")
    return -0.5 * math.log(2.0 * math.pi * s2) - e**2 / (2.0 * s2)


def vuong(loglik_a, loglik_b, k_a: int, k_b: int) -> TestResult:
    """Schwarz-corrected Vuong test for non-nested models.

    T = (sum d_i - (k_a - k_b) ln(n)/2) / (sqrt(n) * sd(d)), d_i the pointwise
    log-likelihood differences; two-sided normal p. Positive T favors model a.
    """
    la = np.asarray(loglik_a, dtype=float)
    lb = np.asarray(loglik_b, dtype=float)
    if la.shape != lb.shape or la.ndim != 1 or len(la) < 5:
        raise ValidationError("need matching per-point log-likelihoods, n >= 5")
    n = len(la)
    d = la - lb
    correction = (k_a - k_b) * math.log(n) / 2.0
    omega = float(np.std(d))
    numer = float(np.sum(d)) - correction
    if omega == 0.0:
        if numer == 0.0:
            return TestResult(0.0, 1.0, False, "Vuong (Schwarz-corrected), degenerate tie")
        raise ZeroVariance("pointwise log-likelihood differences have zero variance")
    t_v = numer / (math.sqrt(n) * omega)
    p = float(2.0 * ndtr(-abs(t_v)))
    return TestResult(
        statistic=t_v,
        p_value=p,
        decision_at_05=p < 0.05,
        method=f"Vuong (Schwarz-corrected), k_a={k_a}, k_b={k_b}; positive favors model a",
    )


# ---------------------------------------------------------------------------
# constrained LR: monotone vs trough within the two-component family
# ---------------------------------------------------------------------------

def _monotone_theta(w: np.ndarray) -> np.ndarray:
    """Map box coordinates w = (log beta, d, log umax, s) to (n0, alpha, umax, beta)."""
    beta, umax = np.exp(np.clip(w[[0, 2]], -40.0, 40.0))
    alpha = beta + w[1]
    return np.array([w[3] * beta * umax / alpha, alpha, umax, beta])


def constrained_lr(
    series: estimate.TimeSeries, fit: estimate.FitReport | None = None
) -> TestResult:
    """Likelihood ratio of the free two-component fit against the monotone region.

    The monotone (nondecreasing) region {alpha >= beta, beta*umax >= alpha*n0}
    is the image of the box d >= 0, 0 <= s <= 1 under alpha = beta + d,
    n0 = s*beta*umax/alpha, so the constrained fit is one bounded
    trust-region least-squares solve in w = (log beta, d, log umax, s),
    started from the free fit projected onto the box, with the package's
    two-component Jacobian chained through dtheta/dw. A free fit that is
    already monotone gives Lambda = 0 with no solve.

    Lambda = n * log(SSE_constrained / SSE_free), reported as 0 (p = 1) when
    the log-ratio is at most the solve's SSE resolution
    ``estimate.SOLVE_FTOL``: the region is a subset of the free model, so
    SSE_free <= SSE_constrained at the true optima, a negative log-ratio only
    means the free fit stopped in a worse local optimum, and a smaller
    positive one is rounding. The null places the truth on the monotone
    boundary, so p comes from the 50:50 chi2_0 : chi2_1 mixture.

    ``fit`` is the free two-component fit of ``series`` when the caller
    already has it (ValidationError for another family); the result is the
    same as with ``fit=None``, which fits it here. Raises NonConvergence when
    the bounded fit exhausts its evaluation budget.
    """
    if fit is None:
        fit = estimate.fit_nls(series, Family.TWO_COMP)
    th = fit.theta_two_comp()
    n0, alpha, umax, beta = th.n0, th.alpha, th.umax, th.beta
    sse_u = fit.sse
    if alpha >= beta and beta * umax >= alpha * n0:
        lam = 0.0
    else:
        t, y = series.times, series.values

        def residual(w):
            return curves._eval_values(Family.TWO_COMP, _monotone_theta(w), t) - y

        def jac(w):
            n0_, alpha_, umax_, beta_ = _monotone_theta(w)
            dtheta_dw = np.array([
                [n0_ * w[1] / alpha_, -n0_ / alpha_, n0_, beta_ * umax_ / alpha_],
                [beta_, 1.0, 0.0, 0.0],
                [0.0, 0.0, umax_, 0.0],
                [beta_, 0.0, 0.0, 0.0],
            ])
            J = curves._gradient_values((n0_, alpha_, umax_, beta_), t)[:, curves.FIT_ORDER]
            return J @ dtheta_dw

        w0 = np.array([
            math.log(beta),
            max(alpha - beta, 0.0),
            math.log(umax),
            min(1.0, alpha * n0 / (beta * umax)),
        ])
        res = least_squares(
            residual,
            w0,
            jac=jac,
            bounds=([-np.inf, 0.0, -np.inf, 0.0], [np.inf, np.inf, np.inf, 1.0]),
            method="trf",
            xtol=1e-12,
            ftol=estimate.SOLVE_FTOL,
            gtol=1e-12,
            max_nfev=5000,
        )
        if res.status == 0:
            raise NonConvergence("monotone-constrained fit exhausted its evaluation budget")
        sse_c = float(res.fun @ res.fun)
        log_ratio = math.log(sse_c / sse_u) if sse_u > 0 else 0.0
        lam = len(series) * log_ratio if log_ratio > estimate.SOLVE_FTOL else 0.0
    p = 1.0 if lam <= 0.0 else float(0.5 * chdtrc(1, lam))
    return TestResult(
        statistic=lam,
        p_value=p,
        decision_at_05=p < 0.05,
        method="constrained LR, monotone region vs free fit; 50:50 chi2(0):chi2(1) boundary mixture",
    )


# ---------------------------------------------------------------------------
# nonparametric shape test
# ---------------------------------------------------------------------------

def isotonic_fit(y) -> np.ndarray:
    """Nondecreasing least-squares fit by pool-adjacent-violators."""
    y = np.asarray(y, dtype=float)
    vals: list[float] = []
    wts: list[float] = []
    for v in y:
        vals.append(float(v))
        wts.append(1.0)
        while len(vals) > 1 and vals[-2] > vals[-1]:
            w = wts[-1] + wts[-2]
            vals[-2] = (vals[-1] * wts[-1] + vals[-2] * wts[-2]) / w
            wts[-2] = w
            vals.pop()
            wts.pop()
    out = np.empty(len(y))
    i = 0
    for v, w in zip(vals, wts):
        out[i : i + int(w)] = v
        i += int(w)
    return out


def _shape_statistic(y: np.ndarray, window: int) -> float:
    return float(np.min(y[window:] - y[:-window]))


def shape_test(series: estimate.TimeSeries, n_boot: int = 1000, seed=0, window: int = 3) -> TestResult:
    """Most negative windowed sum of first differences vs a monotone null.

    The statistic is min_i sum of ``window`` consecutive first differences
    (= min_i y[i+window] - y[i]). The null redraws the series as the isotonic
    (monotone least-squares) fit plus residuals resampled with replacement;
    one-sided p for "too negative". Resampling scatters any contiguous dip,
    so the test keys on contiguity rather than on an explicit noise scale;
    the price is an elevated false-positive rate when the truth hugs the
    monotone boundary (see the benchmark report for measured rates).
    """
    y = series.values
    if len(y) < max(8, window + 1):
        raise TooShort(f"need at least {max(8, window + 1)} points")
    s_obs = _shape_statistic(y, window)
    fit = isotonic_fit(y)
    resid = y - fit
    rng = np.random.default_rng(seed)
    # one (n_boot, n) draw gives the same numbers as n_boot draws of n
    ystar = fit + rng.choice(resid, size=(n_boot, len(y)), replace=True)
    s_boot = np.min(ystar[:, window:] - ystar[:, :-window], axis=1)
    count = int(np.count_nonzero(s_boot <= s_obs))
    p = (1.0 + count) / (1.0 + n_boot)
    return TestResult(
        statistic=s_obs,
        p_value=p,
        decision_at_05=p < 0.05,
        method=f"shape test, window={window} downward difference sums, "
        f"isotonic-null residual bootstrap ({n_boot} resamples)",
    )
