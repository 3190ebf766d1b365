"""Residual diagnostics and model-comparison tests.

Durbin-Watson, Breusch-Pagan (F variant), Schwarz-corrected Vuong,
boundary-constrained likelihood ratio (monotone vs trough within the
two-component family), and a nonparametric shape test against monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc, fdtrc, ndtr

from . import curves, estimate
from .curves import Family
from .errors import (
    DegenerateRegressor,
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

def constrained_lr(
    series: estimate.TimeSeries, fit: estimate.FitReport | None = None
) -> TestResult:
    """Likelihood ratio of the free two-component fit against the monotone region.

    The monotone (nondecreasing) curves form a cone: with alpha >= beta, the
    nonnegative combinations of two columns over w = (log beta,
    log(alpha - beta)) (``estimate._MONOTONE_CONE``). So the constrained SSE
    is a variable-projection fit, the one-row case of the Monte-Carlo loop's
    batch (``_constrained_sse_many``). A free fit that is already monotone
    (``curves.monotone_condition``) gives Lambda = 0 with no solve.

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
    no polish of the constrained fit ends within its evaluation budget.
    """
    if fit is None:
        fit = estimate.fit_nls(series, Family.TWO_COMP)
    (sse_c,), errors = _constrained_sse_many(series.times, series.values[None], [fit])
    if errors:
        raise errors[0]
    return _lr_result(len(series), fit.sse, sse_c)


def _constrained_sse_many(t: np.ndarray, Y: np.ndarray, fits: list) -> tuple[list, dict[int, Exception]]:
    """Each row's constrained SSE given its free fit, None where that fit is
    monotone, the others as one ``estimate._monotone_sse_many`` batch; and
    {row: exception raised}. ValidationError for a fit of another family."""
    thetas = [fit.theta_two_comp() for fit in fits]
    rows = [i for i, th in enumerate(thetas) if not curves.monotone_condition(th)]
    sse_c, errors = [None] * len(fits), {}
    if rows:
        sse, errors = estimate._monotone_sse_many(t, Y[rows], [thetas[i] for i in rows])
        for i, value in zip(rows, sse.tolist()):
            sse_c[i] = value
    return sse_c, {rows[j]: exc for j, exc in errors.items()}


def _lr_result(n: int, sse_u: float, sse_c: float | None) -> TestResult:
    """``constrained_lr``'s Lambda and p from the free SSE and the
    constrained SSE, None when the free fit is monotone."""
    if sse_c is None:
        lam = 0.0
    else:
        log_ratio = math.log(sse_c / sse_u) if sse_u > 0 else 0.0
        lam = n * log_ratio if log_ratio > estimate.SOLVE_FTOL else 0.0
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


def shape_test(series: estimate.TimeSeries, n_boot: int = 1000, seed=0, window: int = 3) -> TestResult:
    """Most negative windowed sum of first differences vs a monotone null.

    The statistic is min_i sum of ``window`` consecutive first differences
    (= min_i y[i+window] - y[i]). The null redraws the series as the isotonic
    (monotone least-squares) fit plus residuals resampled with replacement;
    one-sided p for "too negative". Resampling scatters any contiguous dip,
    so the test keys on contiguity rather than on an explicit noise scale;
    the price is an elevated false-positive rate when the truth hugs the
    monotone boundary (see the benchmark report for measured rates). The
    one-row case of ``_shape_tests``. Raises ValidationError when ``window``
    or ``n_boot`` is below 1.
    """
    return _shape_tests(series.values[None], n_boot, [seed], window)[0]


def _shape_tests(Y: np.ndarray, n_boot: int, seeds, window: int = 3) -> list[TestResult]:
    """``shape_test`` of each row of ``Y`` (shape (B, n)) with its own seed
    ``seeds[i]``. Each row's isotonic fit, resampling and bootstrap minima
    are taken as alone (stacked, the (B, n_boot, n) draws fall out of cache
    and run slower); the observed statistics, the counts and the p-values of
    all rows at once, exact in any order. Raises TooShort for every row at
    once, since they share their length."""
    if window < 1 or n_boot < 1:
        raise ValidationError(f"window and n_boot must be >= 1, got {window} and {n_boot}")
    B, n = Y.shape
    if n < max(8, window + 1):
        raise TooShort(f"need at least {max(8, window + 1)} points")
    s_obs = np.min(Y[:, window:] - Y[:, :-window], axis=1)
    s_boot = np.empty((B, n_boot))
    for y, seed, out in zip(Y, seeds, s_boot):
        fit = isotonic_fit(y)
        # one (n_boot, n) draw gives the same numbers as n_boot draws of n
        ystar = fit + np.random.default_rng(seed).choice(y - fit, size=(n_boot, n), replace=True)
        np.min(ystar[:, window:] - ystar[:, :-window], axis=1, out=out)
    p_values = (1.0 + np.count_nonzero(s_boot <= s_obs[:, None], axis=1)) / (1.0 + n_boot)
    method = (f"shape test, window={window} downward difference sums, "
              f"isotonic-null residual bootstrap ({n_boot} resamples)")
    return [TestResult(statistic=s, p_value=p, decision_at_05=p < 0.05, method=method)
            for s, p in zip(s_obs.tolist(), p_values.tolist())]
