"""Fisher information, Schur-complement profiling, and CRLBs.

Information matrices for the two-component curve under four observation
models: homoskedastic Gaussian, Gaussian AR(1), Poisson counts with known
scale kappa, and Binomial proportions with known ceiling M. Parameters of
interest are phi = (alpha, beta); (n0, umax) are nuisances profiled out via
the Schur complement. Matrix order everywhere: (alpha, beta, n0, umax).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import curves
from .curves import ThetaTwoComp
from .errors import (
    BinomialBoundary,
    InsufficientData,
    NonConvergence,
    PoissonBoundary,
    SingularNuisance,
    ValidationError,
)


@dataclass(frozen=True)
class GaussianIid:
    """sigma = 0 is allowed for noise-free generation; information requires > 0."""

    sigma: float

    def __post_init__(self):
        if not (self.sigma >= 0):
            raise ValidationError("sigma must be >= 0")


@dataclass(frozen=True)
class GaussianAr1:
    sigma: float
    rho: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ValidationError("sigma must be > 0")
        if not (-1.0 < self.rho < 1.0):
            raise ValidationError("rho must lie in (-1, 1)")


@dataclass(frozen=True)
class PoissonCounts:
    kappa: float

    def __post_init__(self):
        if not (self.kappa > 0):
            raise ValidationError("kappa must be > 0")


@dataclass(frozen=True)
class BinomialCounts:
    """Binomial(n_i, A(t_i)/m) observations; m and the trial counts are known."""

    m: float
    trials: int | np.ndarray = 1

    def __post_init__(self):
        if not (self.m > 0):
            raise ValidationError("m must be > 0")
        tr = np.asarray(self.trials)
        if tr.dtype.kind not in "iu" or np.any(tr < 1):
            raise ValidationError(f"trial counts must be integers >= 1, got {self.trials!r}")


ErrorModel = GaussianIid | GaussianAr1 | PoissonCounts | BinomialCounts


@dataclass(frozen=True)
class InfoReport:
    """Fisher information and profiled CRLBs, order (alpha, beta, n0, umax).

    ``corr_alpha_beta`` is the unprofiled score correlation
    I_ab / sqrt(I_aa * I_bb) (negative for every valid design);
    ``est_corr_alpha_beta`` is the correlation implied by the profiled CRLB
    matrix, i.e. the asymptotic correlation of the estimates themselves.
    For AR(1) models, ``ar1_simplified_info`` carries the commonly quoted
    whitened-sum form whose first term keeps the full 1/(1-rho^2) prefactor;
    ``ar1_simplified_max_rel_diff`` reports its worst-case elementwise
    relative discrepancy from the exact information.
    """

    info_full: np.ndarray
    info_profiled: np.ndarray
    crlb_alpha: float
    crlb_beta: float
    corr_alpha_beta: float
    est_corr_alpha_beta: float
    ar1_simplified_info: np.ndarray | None = None
    ar1_simplified_max_rel_diff: float | None = None


def gradient_matrix(theta: ThetaTwoComp, times) -> np.ndarray:
    """n x 4 matrix with row i = gradient of A(t_i), order (alpha, beta, n0, umax)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size < 1:
        raise ValidationError("need at least one design point")
    return curves.gradient_theta(theta, times)


def _ar1_cov(sigma: float, rho: float, n: int) -> np.ndarray:
    idx = np.arange(n)
    return sigma**2 * rho ** np.abs(idx[:, None] - idx[None, :])


def info_ar1_dense(theta: ThetaTwoComp, times, sigma: float, rho: float) -> np.ndarray:
    """Exact G' Sigma^-1 G with Sigma_ij = sigma^2 rho^|i-j| by a dense solve.

    O(n^3) time and O(n^2) memory; kept as the reference that the O(n)
    ``info_ar1_whitened`` used by ``info_matrix`` is tested against.
    """
    G = gradient_matrix(theta, times)
    cov = _ar1_cov(sigma, rho, len(G))
    return G.T @ scipy.linalg.solve(cov, G, assume_a="pos")


def info_ar1_whitened(theta: ThetaTwoComp, times, sigma: float, rho: float) -> np.ndarray:
    """Exact whitened-sum form: matches the dense inverse to rounding.

    The first whitened row is g_1 itself with weight 1/sigma^2 (its marginal
    variance is already sigma^2); subsequent rows are (g_i - rho*g_{i-1}) with
    weight 1/(sigma^2*(1-rho^2)).
    """
    G = gradient_matrix(theta, times)
    info = np.outer(G[0], G[0]) / sigma**2
    if len(G) > 1:
        diffs = G[1:] - rho * G[:-1]
        info = info + diffs.T @ diffs / (sigma**2 * (1.0 - rho**2))
    return info


def info_ar1_simplified(theta: ThetaTwoComp, times, sigma: float, rho: float) -> np.ndarray:
    """Whitened-sum variant with a uniform 1/(sigma^2 (1-rho^2)) prefactor.

    Overcounts the first diagonal term by rho^2 * g_1 g_1' relative to the
    exact information; kept as a labeled variant for comparison.
    """
    G = gradient_matrix(theta, times)
    info = np.outer(G[0], G[0])
    if len(G) > 1:
        diffs = G[1:] - rho * G[:-1]
        info = info + diffs.T @ diffs
    return info / (sigma**2 * (1.0 - rho**2))


def _profile(info: np.ndarray) -> tuple[np.ndarray, float, float]:
    i_ff = info[:2, :2]
    i_fp = info[:2, 2:]
    i_pp = info[2:, 2:]
    cond = np.linalg.cond(i_pp)
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularNuisance(
            f"nuisance information block is singular (cond={cond:.3g})",
            unprofiled=i_ff,
        )
    profiled = i_ff - i_fp @ scipy.linalg.solve(i_pp, i_fp.T, assume_a="sym")
    profiled = 0.5 * (profiled + profiled.T)
    det = profiled[0, 0] * profiled[1, 1] - profiled[0, 1] ** 2
    if det <= 0:
        raise SingularNuisance(
            "profiled information is not positive definite", unprofiled=i_ff
        )
    crlb_alpha = profiled[1, 1] / det
    crlb_beta = profiled[0, 0] / det
    return profiled, float(crlb_alpha), float(crlb_beta)


def info_matrix(theta: ThetaTwoComp, times, em: ErrorModel) -> InfoReport:
    """Fisher information under the chosen observation model, plus CRLBs.

    Gaussian iid:  I = (1/sigma^2) sum g g'
    Gaussian AR1:  I = G' Sigma^-1 G (exact, by the O(n) whitened sum)
    Poisson:       I = kappa * sum g g' / A(t_i), rates kappa*A(t_i) > 0
    Binomial:      I = sum n_i g g' / (M^2 p_i (1-p_i)), p_i = A(t_i)/M in (0,1)
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    G = gradient_matrix(theta, times)
    simplified = None
    simplified_diff = None
    if isinstance(em, GaussianIid):
        if em.sigma == 0:
            raise ValidationError("information is undefined for sigma = 0")
        info = G.T @ G / em.sigma**2
    elif isinstance(em, GaussianAr1):
        info = info_ar1_whitened(theta, times, em.sigma, em.rho)
        simplified = info_ar1_simplified(theta, times, em.sigma, em.rho)
        scale = np.max(np.abs(info))
        simplified_diff = float(np.max(np.abs(simplified - info)) / scale)
    elif isinstance(em, PoissonCounts):
        lam, _ = _count_law(em, curves.eval_curve(theta, times))
        info = G.T @ (G * (em.kappa**2 / lam)[:, None])
    elif isinstance(em, BinomialCounts):
        p, trials = _count_law(em, curves.eval_curve(theta, times))
        info = G.T @ (G * (trials / (em.m**2 * p * (1.0 - p)))[:, None])
    else:
        raise ValidationError(f"unknown error model {em!r}")
    info = 0.5 * (info + info.T)
    profiled, crlb_alpha, crlb_beta = _profile(info)
    corr = float(info[0, 1] / math.sqrt(info[0, 0] * info[1, 1]))
    crlb_cross = -profiled[0, 1] / (
        profiled[0, 0] * profiled[1, 1] - profiled[0, 1] ** 2
    )
    est_corr = float(crlb_cross / math.sqrt(crlb_alpha * crlb_beta))
    return InfoReport(
        info_full=info,
        info_profiled=profiled,
        crlb_alpha=crlb_alpha,
        crlb_beta=crlb_beta,
        corr_alpha_beta=corr,
        est_corr_alpha_beta=est_corr,
        ar1_simplified_info=simplified,
        ar1_simplified_max_rel_diff=simplified_diff,
    )


@dataclass(frozen=True)
class DesignComparison:
    crlb_ratio_alpha: float
    crlb_ratio_beta: float
    corr_a: float
    corr_b: float
    est_corr_a: float
    est_corr_b: float


def design_compare(theta: ThetaTwoComp, design_a, design_b, em: ErrorModel) -> DesignComparison:
    """Profiled CRLB ratios (a over b) and both correlations for two designs."""
    a = np.atleast_1d(np.asarray(design_a, dtype=float))
    b = np.atleast_1d(np.asarray(design_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValidationError("designs must be non-empty")
    ra = info_matrix(theta, a, em)
    rb = info_matrix(theta, b, em)
    return DesignComparison(
        crlb_ratio_alpha=ra.crlb_alpha / rb.crlb_alpha,
        crlb_ratio_beta=ra.crlb_beta / rb.crlb_beta,
        corr_a=ra.corr_alpha_beta,
        corr_b=rb.corr_alpha_beta,
        est_corr_a=ra.est_corr_alpha_beta,
        est_corr_b=rb.est_corr_alpha_beta,
    )


# ---------------------------------------------------------------------------
# observation sampling (generative counterpart of the information formulas)
# ---------------------------------------------------------------------------

def sample_observations(theta: ThetaTwoComp, times, em: ErrorModel, rng: np.random.Generator) -> np.ndarray:
    """Draw one observation vector at ``times`` under the error model.

    AR(1) noise is drawn from its stationary law with marginal variance
    sigma^2 (innovations sigma*sqrt(1-rho^2)), matching Sigma_ij =
    sigma^2 rho^|i-j| used by info_matrix. The one-row case of
    ``_sample_many``.
    """
    return _sample_many(theta, times, em, [rng])[0]


def _sample_many(theta: ThetaTwoComp, times, em: ErrorModel, rngs) -> np.ndarray:
    """``sample_observations`` with each generator of ``rngs``, shape
    (len(rngs), n): the curve is evaluated once, each row draws from its own
    generator, and the AR(1) recursion runs across the rows a column at a
    time, with one row's operations."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    mean = curves.eval_curve(theta, times)
    if isinstance(em, (GaussianIid, GaussianAr1)):
        z = np.array([rng.standard_normal(len(times)) for rng in rngs])
        if isinstance(em, GaussianIid):
            return mean + em.sigma * z
        e = np.empty_like(z)
        e[:, 0] = em.sigma * z[:, 0]
        innov = em.sigma * math.sqrt(1.0 - em.rho**2)
        for i in range(1, len(times)):
            e[:, i] = em.rho * e[:, i - 1] + innov * z[:, i]
        return mean + e
    if isinstance(em, PoissonCounts):
        lam, _ = _count_law(em, mean)
        return np.array([rng.poisson(lam) for rng in rngs], dtype=float)
    if isinstance(em, BinomialCounts):
        p, trials = _count_law(em, mean)
        return np.array([rng.binomial(trials, p) for rng in rngs], dtype=float)
    raise ValidationError(f"unknown error model {em!r}")


def _count_law(em: PoissonCounts | BinomialCounts, mean: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The Poisson rates kappa*A(t) and None, or the Binomial probabilities
    A(t)/M and the trial counts, one per design point, from the curve
    ``mean`` there; a boundary error where the law is undefined."""
    if isinstance(em, PoissonCounts):
        lam = em.kappa * mean
        if np.any(lam <= 0):
            raise PoissonBoundary("kappa*A(t) must be positive at every design point")
        return lam, None
    p = mean / em.m
    if np.any((p <= 0) | (p >= 1)):
        raise BinomialBoundary("A(t)/M must lie strictly inside (0,1)")
    if np.ndim(em.trials) and np.shape(em.trials) != mean.shape:
        raise ValidationError(f"need one trial count per design point ({len(mean)}), got {np.shape(em.trials)}")
    return p, np.broadcast_to(np.asarray(em.trials), mean.shape)


@dataclass(frozen=True)
class CrlbCheck:
    mc_var_alpha: float
    mc_var_beta: float
    crlb_alpha: float
    crlb_beta: float
    ratio_alpha: float
    ratio_beta: float
    replicates: int
    n_failed: int
    #: failed refits by exception class name; the counts sum to n_failed
    failures: dict[str, int]


def crlb_check(
    theta: ThetaTwoComp,
    times,
    em: ErrorModel,
    replicates: int = 500,
    seed=0,
    threads: int = 1,
) -> CrlbCheck:
    """Monte-Carlo check that empirical NLS variances respect the profiled CRLB.

    Simulates every replicate under ``em``, refits them all as one batch of
    cold two-component fits (``estimate._fit_cold_many``; a replicate the
    batch does not certify is refit by ``estimate.fit_nls``), and reports
    empirical Var(alpha_hat), Var(beta_hat) next to the bounds. Replicate
    seeds are counter-based, so the result is a pure function of (inputs,
    seed). ``threads`` is accepted and ignored (replicates run in one
    process). Fit failures are counted, by exception class in ``failures``;
    fewer than 2 successful refits raise NonConvergence. Before any replicate
    is drawn, times that ``TimeSeries`` refuses raise as there (NonMonotoneTime
    when they do not strictly increase), and fewer than 5 InsufficientData.
    """
    from . import estimate  # local import: estimate does not depend on fisher

    if replicates < 100:
        raise ValidationError("need at least 100 replicates")
    times = np.atleast_1d(np.asarray(times, dtype=float))
    estimate.TimeSeries(times, times)  # the times check of fit_nls, made once for every refit
    if len(times) < 5:
        raise InsufficientData(f"need at least 5 points for twocomp, got {len(times)}")
    report = info_matrix(theta, times, em)

    Y = _sample_many(theta, times, em, [np.random.default_rng(np.random.SeedSequence((_seed_int(seed), 0, i)))
                                        for i in range(replicates)])
    fits, errors = estimate._fit_cold_many(times, Y)
    ok = [(float(fit.theta[1]), float(fit.theta[3])) for fit in fits if fit is not None]
    if len(ok) < 2:
        raise NonConvergence(
            f"{replicates - len(ok)}/{replicates} refits failed; need 2 for a variance"
        )
    arr = np.asarray(ok)
    mc_var_alpha = float(np.var(arr[:, 0], ddof=1))
    mc_var_beta = float(np.var(arr[:, 1], ddof=1))
    return CrlbCheck(
        mc_var_alpha=mc_var_alpha,
        mc_var_beta=mc_var_beta,
        crlb_alpha=report.crlb_alpha,
        crlb_beta=report.crlb_beta,
        ratio_alpha=mc_var_alpha / report.crlb_alpha,
        ratio_beta=mc_var_beta / report.crlb_beta,
        replicates=replicates,
        n_failed=replicates - len(ok),
        failures=estimate._failure_counts(errors.values()),
    )


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(np.random.SeedSequence(seed).generate_state(1)[0])
