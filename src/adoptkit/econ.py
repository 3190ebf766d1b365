"""Task-level utility economics, hazard links, and agency thresholds.

Per-task utility u = R*v - (1-R)*C_f - c_time*tau - c_fric*phi; hazard
families map a utility advantage to the adoption growth rate beta; the agency
threshold R* = R_chat + K/mu_C with K = c_time*dtau + c_fric*dphi, plus its
delta-method uncertainty, robust (lower-confidence-bound) variant, and tail
preference probabilities under heterogeneous failure costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    CollinearDesign,
    NonpositiveLowerBound,
    ValidationError,
)
from .estimate import _check_level, _ols_hc1


@dataclass(frozen=True)
class Task:
    v: float
    c_f: float
    tau: float
    phi: float
    w: float

    def __post_init__(self):
        vals = (self.v, self.c_f, self.tau, self.phi, self.w)
        if not all(math.isfinite(x) and x >= 0 for x in vals):
            raise ValidationError(f"task fields must be finite and nonnegative: {vals}")


@dataclass(frozen=True)
class TaskEconomy:
    tasks: tuple[Task, ...]
    c_time: float = 1.0
    c_fric: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ValidationError("economy needs at least one task")
        total = sum(t.w for t in self.tasks)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"task weights must sum to 1, got {total}")
        if self.c_time < 0 or self.c_fric < 0:
            raise ValidationError("cost weights must be nonnegative")

    def weights(self) -> np.ndarray:
        return np.array([t.w for t in self.tasks])


def task_utility(task: Task, r: float, c_time: float, c_fric: float) -> float:
    """R*v - (1-R)*C_f - c_time*tau - c_fric*phi."""
    if not (0.0 <= r <= 1.0):
        raise ValidationError(f"reliability must lie in [0,1], got {r}")
    return r * task.v - (1.0 - r) * task.c_f - c_time * task.tau - c_fric * task.phi


def utility_reliability_gradient(econ: TaskEconomy, dtau_dr: float = 0.0) -> float:
    """dU/dR = E[v + C_f] - c_time * dtau/dR (positive when oversight shrinks)."""
    ev_cf = sum(t.w * (t.v + t.c_f) for t in econ.tasks)
    return ev_cf - econ.c_time * dtau_dr


# ---------------------------------------------------------------------------
# hazard families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearHazard:
    lam: float

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValidationError("lam must be > 0")


@dataclass(frozen=True)
class LogitHazard:
    lam: float
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0 and self.b > 0):
            raise ValidationError("lam and b must be > 0")


@dataclass(frozen=True)
class ProbitHazard:
    lam: float
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0 and self.b > 0):
            raise ValidationError("lam and b must be > 0")


@dataclass(frozen=True)
class ExponentialHazard:
    lam: float
    b: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0 and self.b > 0):
            raise ValidationError("lam and b must be > 0")


HazardSpec = LinearHazard | LogitHazard | ProbitHazard | ExponentialHazard


def hazard_value(spec: HazardSpec, dv: float) -> float:
    """Evaluate the hazard family at utility advantage dv (displayed forms).

    Note h(0) != 0 for logit/probit with a != 0; callers can inspect the
    offset via hazard_value(spec, 0.0).
    """
    if isinstance(spec, LinearHazard):
        return spec.lam * max(dv, 0.0)
    if isinstance(spec, LogitHazard):
        return spec.lam * (1.0 / (1.0 + math.exp(-(spec.a + spec.b * dv))) - 0.5)
    if isinstance(spec, ProbitHazard):
        return spec.lam * (ndtr(spec.a + spec.b * dv) - 0.5)
    if isinstance(spec, ExponentialHazard):
        return spec.lam * (math.exp(spec.b * dv) - 1.0)
    raise ValidationError(f"unknown hazard spec {spec!r}")


def hazard_hprime0(spec: HazardSpec) -> float:
    """Closed-form h'(0) per family: lam; lam*b/4; lam*b*phi(a); lam*b.

    The logit value is the quarter rule (its a=0 evaluation), the probit one
    keeps the a-dependence; both are the standard quoted forms.
    """
    if isinstance(spec, LinearHazard):
        return spec.lam
    if isinstance(spec, LogitHazard):
        return spec.lam * spec.b / 4.0
    if isinstance(spec, ProbitHazard):
        return spec.lam * spec.b * float(np.exp(-spec.a**2 / 2.0) / np.sqrt(2.0 * np.pi))
    if isinstance(spec, ExponentialHazard):
        return spec.lam * spec.b
    raise ValidationError(f"unknown hazard spec {spec!r}")


def beta_from_hazard(spec: HazardSpec, tau_review: float, delta_v: float) -> float:
    """Small-signal growth rate beta ~= h'(0) * delta_v / tau_review."""
    if not (tau_review > 0):
        raise ValidationError("tau_review must be > 0")
    return hazard_hprime0(spec) * delta_v / tau_review


def embedding_beta_gradient(
    spec: HazardSpec, tau_review: float, c_fric: float, phi_dest: float
) -> float:
    """d beta / d E ~= (h'(0)/tau) * c_fric * phi_dest (positive for all families)."""
    if not (tau_review > 0):
        raise ValidationError("tau_review must be > 0")
    return hazard_hprime0(spec) / tau_review * c_fric * phi_dest


# ---------------------------------------------------------------------------
# friction model
# ---------------------------------------------------------------------------

def friction_expectation(e: float, phi_dest: float) -> float:
    """E[phi | E] = (1 - E) * phi_dest."""
    if not (0.0 <= e <= 1.0):
        raise ValidationError("embedding factor must lie in [0,1]")
    if phi_dest < 0:
        raise ValidationError("phi_dest must be nonnegative")
    return (1.0 - e) * phi_dest


def friction_expectation_gradient(phi_dest: float) -> float:
    """d E[phi]/d E = -phi_dest."""
    if phi_dest < 0:
        raise ValidationError("phi_dest must be nonnegative")
    return -phi_dest


@dataclass(frozen=True)
class FrictionCalibration:
    kappa_s: float
    kappa_i: float
    se_s: float
    se_i: float
    n: int


def friction_calibration(switches, interrupts, measured_phi) -> FrictionCalibration:
    """No-intercept OLS of measured friction on (switches, interrupts), HC1 SEs."""
    s = np.asarray(switches, dtype=float)
    i = np.asarray(interrupts, dtype=float)
    phi = np.asarray(measured_phi, dtype=float)
    if not (s.shape == i.shape == phi.shape) or s.ndim != 1 or len(s) < 3:
        raise ValidationError("need >= 3 episodes with matching shapes")
    X = np.column_stack([s, i])
    if np.linalg.matrix_rank(X) < 2:
        raise CollinearDesign("switch and interrupt counts are collinear")
    coef, vcov = _ols_hc1(X, phi)
    return FrictionCalibration(
        kappa_s=float(coef[0]),
        kappa_i=float(coef[1]),
        se_s=math.sqrt(max(float(vcov[0, 0]), 0.0)),
        se_i=math.sqrt(max(float(vcov[1, 1]), 0.0)),
        n=len(s),
    )


# ---------------------------------------------------------------------------
# agency threshold
# ---------------------------------------------------------------------------

def agency_threshold(
    r_chat: float,
    delta_tau: float,
    delta_phi: float,
    c_time: float,
    c_fric: float,
    mu_c: float,
) -> float:
    """R* = R_chat + (c_time*dtau + c_fric*dphi) / mu_C. Raises
    ValidationError for an input that is not finite or a mu_c <= 0."""
    if not all(map(math.isfinite, (r_chat, delta_tau, delta_phi, c_time, c_fric, mu_c))):
        raise ValidationError("r_chat, delta_tau, delta_phi, c_time, c_fric and mu_c must be finite")
    if not (mu_c > 0):
        raise ValidationError("mu_c must be > 0")
    k = c_time * delta_tau + c_fric * delta_phi
    return r_chat + k / mu_c


@dataclass(frozen=True)
class ThresholdReport:
    r_star: float
    variance: float
    ci: tuple[float, float]
    robust_r_star: float
    hoeffding_penalty: float | None = None
    hoeffding_r_star: float | None = None
    preference_probability: float | None = None


def threshold_uncertainty(
    r_chat: float,
    delta_tau: float,
    delta_phi: float,
    c_time: float,
    c_fric: float,
    mu_c: float,
    sigma_mu: float,
    level: float = 0.95,
    c_max: float | None = None,
    n: int | None = None,
) -> ThresholdReport:
    """Delta-method uncertainty for R* plus the robust lower-bound rule.

    Var(R*) ~= (K/mu_C^2)^2 sigma_mu^2; the CI half-width is
    z_{1-a/2} |K| sigma_mu / mu_C^2. The robust threshold replaces mu_C with
    the one-sided lower bound mu_C - z_{1-a} sigma_mu; with bounded C_f in
    [0, c_max] and a sample size n, the distribution-free Hoeffding floor
    mu_C - c_max*sqrt(log(1/a)/(2n)) is reported as well. Raises
    ValidationError for a sigma_mu that is negative or nan, an input that
    ``agency_threshold`` rejects, a level outside (0, 1), a ``c_max`` or
    ``n`` given without the other, a c_max that is not finite and >= mu_C
    (C_f in [0, c_max] cannot average more), or an n that is not an integer
    >= 1.
    """
    if not (sigma_mu >= 0):
        raise ValidationError("sigma_mu must be nonnegative")
    _check_level(level)
    r_star = agency_threshold(r_chat, delta_tau, delta_phi, c_time, c_fric, mu_c)
    if (c_max is None) != (n is None):
        raise ValidationError("c_max and n must be given together")
    if c_max is not None:
        if not mu_c <= c_max < math.inf:
            raise ValidationError(f"c_max must be finite and >= mu_C = {mu_c!r}, got {c_max!r}")
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValidationError(f"n must be an integer >= 1, got {n!r}")
    k = c_time * delta_tau + c_fric * delta_phi
    variance = (k / mu_c**2) ** 2 * sigma_mu**2
    z2 = ndtri(0.5 + level / 2.0)
    half = z2 * abs(k) * sigma_mu / mu_c**2
    alpha = 1.0 - level
    z1 = ndtri(level)
    mu_low = mu_c - z1 * sigma_mu
    if mu_low <= 0:
        raise NonpositiveLowerBound(
            f"lower confidence bound on mu_C is {mu_low:.4g} <= 0; robust rule undefined"
        )
    robust = r_chat + k / mu_low
    hoeff_pen = None
    hoeff_r = None
    if c_max is not None:
        hoeff_pen = c_max * math.sqrt(math.log(1.0 / alpha) / (2.0 * n))
        mu_hoeff = mu_c - hoeff_pen
        if mu_hoeff > 0:
            hoeff_r = r_chat + k / mu_hoeff
    return ThresholdReport(
        r_star=r_star,
        variance=variance,
        ci=(r_star - half, r_star + half),
        robust_r_star=robust,
        hoeffding_penalty=hoeff_pen,
        hoeffding_r_star=hoeff_r,
    )


def preference_probability(c_f_distribution, k: float, reliability_gap: float) -> float:
    """Pr{C_f >= K / (R_agent - R_chat)}: the task mass preferring the agent.

    ``c_f_distribution`` is either an empirical sample (array), or
    ("uniform", lo, hi), or ("lognormal", mu, sigma).
    """
    if not (reliability_gap > 0):
        raise ValidationError("reliability_gap must be > 0")
    threshold = k / reliability_gap
    if isinstance(c_f_distribution, (tuple, list)) and c_f_distribution and isinstance(
        c_f_distribution[0], str
    ):
        name = c_f_distribution[0].lower()
        if name == "uniform":
            _, lo, hi = c_f_distribution
            if not (hi > lo):
                raise ValidationError("uniform needs hi > lo")
            return float(np.clip((hi - threshold) / (hi - lo), 0.0, 1.0))
        if name == "lognormal":
            _, mu, sigma = c_f_distribution
            if not (sigma > 0):
                raise ValidationError("lognormal needs sigma > 0")
            if threshold <= 0:
                return 1.0
            return float(ndtr(-math.log(threshold / math.exp(mu)) / sigma))
        raise ValidationError(f"unknown named family {name!r}")
    sample = np.asarray(c_f_distribution, dtype=float)
    if sample.ndim != 1 or len(sample) == 0:
        raise ValidationError("empirical sample must be a non-empty 1-d array")
    return float(np.mean(sample >= threshold))


# ---------------------------------------------------------------------------
# microfoundations
# ---------------------------------------------------------------------------

def micro_umax(
    econ: TaskEconomy,
    reliabilities: Sequence[float],
    saturation: Callable[[float], float] | None = None,
) -> float:
    """Utility carrying capacity: weighted mass of tasks with positive surplus.

    With ``saturation`` supplied, the indicator is replaced by the smooth map
    s(delta_u) in [0, 1].
    """
    r = np.asarray(reliabilities, dtype=float)
    if len(r) != len(econ.tasks):
        raise ValidationError("need one long-run reliability per task")
    total = 0.0
    for task, ri in zip(econ.tasks, r):
        du = task_utility(task, float(ri), econ.c_time, econ.c_fric)
        total += task.w * (saturation(du) if saturation is not None else float(du > 0.0))
    return total


def micro_n0(seed_probs, weights) -> float:
    """Initial novelty level: weighted average of per-task seeding probabilities."""
    p = np.asarray(seed_probs, dtype=float)
    w = np.asarray(weights, dtype=float)
    if p.shape != w.shape or p.ndim != 1 or len(p) == 0:
        raise ValidationError("seed_probs and weights must be matching 1-d arrays")
    if np.any((p < 0) | (p > 1)):
        raise ValidationError("seeding probabilities must lie in [0,1]")
    if abs(float(np.sum(w)) - 1.0) > 1e-9 or np.any(w < 0):
        raise ValidationError("weights must be nonnegative and sum to 1")
    return float(np.dot(p, w))
