"""Synthetic series generation, the pilot simulation, and the MC benchmark.

Everything here is a pure function of (inputs, seed). Replicate seeds are
counter-based tuples (master_seed, scenario_index, replicate_index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import curves, estimate, fisher, infer
from .curves import PhaseKind, ThetaTwoComp
from .errors import RECOVERABLE, ValidationError
from .estimate import TimeSeries
from .fisher import ErrorModel, GaussianIid


def gen_series(
    theta: ThetaTwoComp,
    em: ErrorModel,
    n_points: int,
    horizon: float,
    seed=0,
    unit: str = "day",
) -> TimeSeries:
    """Equispaced series on [0, horizon] with model noise; deterministic per seed."""
    if n_points < 2:
        raise ValidationError("n_points must be >= 2")
    if not (horizon > 0):
        raise ValidationError("horizon must be > 0")
    times = np.linspace(0.0, horizon, n_points)
    rng = np.random.default_rng(seed)
    values = fisher.sample_observations(theta, times, em, rng)
    return TimeSeries(times, values, unit=unit)


# ---------------------------------------------------------------------------
# pilot simulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PilotConfig:
    seed: int = 42
    n_tasks: int = 200
    beta_chat: tuple[float, float] = (6.0, 4.0)  # mean ~0.60
    beta_agent: tuple[float, float] = (8.0, 2.0)  # mean ~0.80
    c_time: float = 1.0
    c_fric: float = 1.0
    delta_tau: float = 0.3
    delta_phi: float = 0.1
    cf_low: float = 0.5
    cf_high: float = 1.5

    def __post_init__(self):
        if self.n_tasks < 1:
            raise ValidationError("n_tasks must be >= 1")
        if min(self.beta_chat) <= 0 or min(self.beta_agent) <= 0:
            raise ValidationError("Beta shape parameters must be positive")
        if not (self.cf_high > self.cf_low):
            raise ValidationError("cf bounds must satisfy cf_high > cf_low")


@dataclass(frozen=True)
class PilotResult:
    r_chat: float
    r_agent: float
    r_star: float
    mu_c: float


def pilot_sim(cfg: PilotConfig = PilotConfig()) -> PilotResult:
    """Head-to-head chat/agent pilot: Beta success rates, Bernoulli outcomes,
    uniform failure costs, and the resulting agency threshold."""
    rng = np.random.default_rng(cfg.seed)
    cf = rng.uniform(cfg.cf_low, cfg.cf_high, cfg.n_tasks)
    p_chat = rng.beta(*cfg.beta_chat, size=cfg.n_tasks)
    p_agent = rng.beta(*cfg.beta_agent, size=cfg.n_tasks)
    chat = (rng.random(cfg.n_tasks) < p_chat).astype(int)
    agent = (rng.random(cfg.n_tasks) < p_agent).astype(int)
    r_chat = float(chat.mean())
    r_agent = float(agent.mean())
    mu_c = float(cf.mean())
    r_star = r_chat + (cfg.c_time * cfg.delta_tau + cfg.c_fric * cfg.delta_phi) / mu_c
    return PilotResult(r_chat=r_chat, r_agent=r_agent, r_star=float(r_star), mu_c=mu_c)


# ---------------------------------------------------------------------------
# trough-depth parameterization
# ---------------------------------------------------------------------------

def trough_depth(theta: ThetaTwoComp) -> float:
    """(max of A before t* minus A(t*)) / umax; 0 for monotone curves.

    In the trough regime A decreases on [0, t*], so the pre-trough maximum is
    A(0) = n0.
    """
    report = curves.classify_phase(theta)
    if report.kind != PhaseKind.TROUGH:
        return 0.0
    a_star = float(curves.eval_curve(theta, report.t_star))
    return (theta.n0 - a_star) / theta.umax


def theta_for_depth(
    depth: float,
    alpha: float = 0.8,
    beta: float = 0.25,
    umax: float = 2.0,
) -> ThetaTwoComp:
    """Scale n0 at fixed (alpha, beta, umax) to hit a target trough depth.

    depth = 0 returns the monotone boundary n0 = beta*umax/alpha (the least
    favorable null for the constrained LR test).
    """
    if depth < 0:
        raise ValidationError("depth must be nonnegative")
    if not (alpha > beta):
        raise ValidationError("trough regime requires alpha > beta")
    n0_boundary = beta * umax / alpha
    if depth == 0.0:
        return ThetaTwoComp(n0=n0_boundary, alpha=alpha, umax=umax, beta=beta)
    lo = n0_boundary
    hi = n0_boundary * 2.0
    while trough_depth(ThetaTwoComp(hi, alpha, umax, beta)) < depth:
        hi *= 2.0
        if hi > 1e9:
            raise ValidationError(f"depth {depth} not reachable")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if trough_depth(ThetaTwoComp(mid, alpha, umax, beta)) < depth:
            lo = mid
        else:
            hi = mid
    return ThetaTwoComp(n0=0.5 * (lo + hi), alpha=alpha, umax=umax, beta=beta)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioGrid:
    """Cross product of truths, error models, and design sizes; ValidationError
    for replicates or shape_boot below 1, a negative seed, n_points below 5,
    a horizon that is not finite and > 0, or a level outside (0, 1)."""

    thetas: tuple[ThetaTwoComp, ...]
    error_models: tuple[ErrorModel, ...]
    n_points: tuple[int, ...]
    horizon: float = 20.0
    replicates: int = 500
    seed: int = 0
    level: float = 0.95
    shape_boot: int = 200

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(self.thetas))
        object.__setattr__(self, "error_models", tuple(self.error_models))
        ns = tuple(int(n) for n in (
            (self.n_points,) if isinstance(self.n_points, (int, np.integer)) else self.n_points
        ))
        object.__setattr__(self, "n_points", ns)
        if self.replicates < 1 or self.shape_boot < 1 or self.seed < 0:
            raise ValidationError("replicates and shape_boot must be >= 1 and seed >= 0")
        if any(n < 5 for n in ns) or not 0.0 < self.horizon < math.inf:
            raise ValidationError("n_points must be >= 5 and horizon finite and > 0")
        estimate._check_level(self.level)


@dataclass(frozen=True)
class ScenarioResult:
    theta: ThetaTwoComp
    error_model: ErrorModel
    n_points: int
    depth: float
    is_monotone_truth: bool
    near_degenerate: bool
    well_conditioned: bool
    replicates: int
    n_failed: int
    #: failed replicates by exception class name; the counts sum to n_failed
    failures: dict[str, int]
    degraded: bool
    coverage_tstar: float | None
    coverage_ci: tuple[float, float] | None
    type1_lr: float | None
    type1_lr_ci: tuple[float, float] | None
    type1_shape: float | None
    power_lr: float | None
    power_lr_ci: tuple[float, float] | None
    power_shape: float | None
    mean_crlb_ratio: float | None


@dataclass(frozen=True)
class BenchmarkReport:
    scenarios: tuple[ScenarioResult, ...]
    totals: dict
    notes: str


def wilson_interval(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    z = ndtri(0.5 + level / 2.0)
    p = k / n
    denom = 1.0 + z**2 / n
    center = (p + z**2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z**2 / (4 * n**2)) / denom
    return (center - half, center + half)


def _run_scenario(
    theta: ThetaTwoComp,
    em: ErrorModel,
    n_points: int,
    grid: ScenarioGrid,
    scenario_index: int,
) -> ScenarioResult:
    times = np.linspace(0.0, grid.horizon, n_points)
    phase = curves.classify_phase(theta)
    has_trough = phase.kind == PhaseKind.TROUGH
    t_true = phase.t_star
    depth = trough_depth(theta)
    near_degenerate = (
        theta.umax > 0 and abs(theta.umax - theta.n0) / theta.umax < 0.05
    )
    well_conditioned = (
        isinstance(em, GaussianIid) and has_trough and not near_degenerate
    )
    try:
        crlb_beta = fisher.info_matrix(theta, times, em).crlb_beta
    except RECOVERABLE:
        crlb_beta = None

    seeds = [(grid.seed, scenario_index, i) for i in range(grid.replicates)]
    Y = fisher._sample_many(theta, times, em, [np.random.default_rng(s) for s in seeds])
    fits, errors = estimate._fit_cold_many(times, Y)
    rows = [i for i in range(grid.replicates) if i not in errors]
    sse_c, lr_errors = infer._constrained_sse_many(times, Y[rows], [fits[i] for i in rows])
    try:
        shapes = infer._shape_tests(Y[rows], grid.shape_boot, [(*seeds[i], 1) for i in rows])
    except RECOVERABLE:
        shapes = [None] * len(rows)
    ok = []
    for j, (i, shape) in enumerate(zip(rows, shapes)):
        fit = fits[i]
        out = {"beta_hat": float(fit.theta[3])}
        if has_trough:
            try:
                delta = estimate.delta_ci_tstar(fit, level=grid.level)
                out["covered"] = delta.ci[0] <= t_true <= delta.ci[1]
            except RECOVERABLE:
                out["covered"] = False  # no interior extremum in the fit: CI missed
        lr = None if j in lr_errors else infer._lr_result(n_points, fit.sse, sse_c[j])
        out["lr_reject"] = None if lr is None else lr.p_value < 0.05
        out["shape_reject"] = None if shape is None else shape.p_value < 0.05
        ok.append(out)
    n_failed = grid.replicates - len(ok)
    degraded = n_failed > 0.2 * grid.replicates

    def rate(key) -> tuple[float | None, tuple[float, float] | None]:
        vals = [r[key] for r in ok if r.get(key) is not None]
        if not vals:
            return None, None
        k = sum(bool(v) for v in vals)
        return k / len(vals), wilson_interval(k, len(vals))

    cov, cov_ci = rate("covered") if has_trough else (None, None)
    lr, lr_ci = rate("lr_reject")
    shape_rate, _ = rate("shape_reject")
    mean_ratio = None
    if crlb_beta is not None and len(ok) >= 2:
        betas = np.array([r["beta_hat"] for r in ok])
        mean_ratio = float(np.var(betas, ddof=1) / crlb_beta)
    monotone_truth = not has_trough
    return ScenarioResult(
        theta=theta,
        error_model=em,
        n_points=n_points,
        depth=depth,
        is_monotone_truth=monotone_truth,
        near_degenerate=near_degenerate,
        well_conditioned=well_conditioned,
        replicates=grid.replicates,
        n_failed=n_failed,
        failures=estimate._failure_counts(errors.values()),
        degraded=degraded,
        coverage_tstar=cov,
        coverage_ci=cov_ci,
        type1_lr=lr if monotone_truth else None,
        type1_lr_ci=lr_ci if monotone_truth else None,
        type1_shape=shape_rate if monotone_truth else None,
        power_lr=lr if not monotone_truth else None,
        power_lr_ci=lr_ci if not monotone_truth else None,
        power_shape=shape_rate if not monotone_truth else None,
        mean_crlb_ratio=mean_ratio,
    )


def run_benchmark(grid: ScenarioGrid, threads: int = 1) -> BenchmarkReport:
    """Coverage / type-I / power / CRLB-ratio summary over the scenario grid.

    Headline coverage aggregates only well-conditioned scenarios (iid noise,
    trough truth, |umax - n0|/umax >= 0.05); near-degenerate and correlated
    scenarios are reported but flagged.

    Each scenario runs its replicates as batches, each replicate's numbers
    those of a batch of it alone: it draws them all (``fisher._sample_many``,
    each from its own seed), fits them together, the free two-component fits
    and their reports as one batch (``estimate._fit_cold_many``) and, for
    the fits that are not monotone, the constrained fits of the LR test as
    another (``infer._constrained_sse_many``, then ``infer._lr_result``), and
    runs their shape tests as one (``infer._shape_tests``); a replicate the
    batch does not certify is fit singly. ``failures`` counts the replicates
    whose free fit raised, by exception class.

    ``threads`` is accepted and ignored: replicates run in one process (the work
    holds the GIL, so threads never sped it up) and output never depended on it.
    """
    scenarios = []
    idx = 0
    for theta in grid.thetas:
        for em in grid.error_models:
            for n in grid.n_points:
                scenarios.append(_run_scenario(theta, em, n, grid, idx))
                idx += 1
    cov_num = 0
    cov_den = 0
    for s in scenarios:
        if s.well_conditioned and s.coverage_tstar is not None:
            used = s.replicates - s.n_failed
            cov_num += round(s.coverage_tstar * used)
            cov_den += used
    totals = {
        "n_scenarios": len(scenarios),
        "coverage_tstar_wellconditioned": (cov_num / cov_den) if cov_den else None,
        "coverage_tstar_wellconditioned_ci": (
            wilson_interval(cov_num, cov_den) if cov_den else None
        ),
        "type1_lr_by_scenario": [s.type1_lr for s in scenarios if s.type1_lr is not None],
        "power_lr_by_scenario": [s.power_lr for s in scenarios if s.power_lr is not None],
    }
    notes = (
        "nominal level 0.95 for coverage; tests at 5%; grid ranges and the "
        "trough-depth parameterization are package conventions; headline "
        "coverage uses well-conditioned scenarios only (iid noise, trough "
        "truth, |umax-n0|/umax >= 0.05); the shape test's bootstrap null is "
        "anti-conservative near the flat monotone boundary, so constrained-LR "
        "type-I is the calibrated reference"
    )
    return BenchmarkReport(scenarios=tuple(scenarios), totals=totals, notes=notes)
