"""Closed-form adoption-curve families and exact phase analysis.

The central object is the two-component curve

    A(t) = n0 * exp(-alpha*t) + umax * (1 - exp(-beta*t)),   alpha, beta > 0,

a decaying novelty term plus a saturating utility term. Five comparator
families (logistic, Bass, bi-logistic, double-exponential, logistic plus a
transient Gaussian bump) share the same evaluation interface.

All functions here are pure and accept scalars or numpy arrays for ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoInteriorExtremum, ValidationError

# alpha == beta is decided at this relative tolerance; the equal-rates curve
# has no interior extremum and is reported as its own phase kind.
RATE_EQ_RTOL = 1e-12


class Family(str, Enum):
    TWO_COMP = "twocomp"
    LOGISTIC = "logistic"
    BASS = "bass"
    BI_LOGISTIC = "bilogistic"
    DOUBLE_EXP = "doubleexp"
    LOGISTIC_BUMP = "logisticbump"


#: parameter names, in the fitting/reporting order used across the package
FAMILY_PARAMS: dict[Family, tuple[str, ...]] = {
    Family.TWO_COMP: ("n0", "alpha", "umax", "beta"),
    Family.LOGISTIC: ("k", "c", "g"),
    Family.BASS: ("k", "p", "q"),
    Family.BI_LOGISTIC: ("k1", "c1", "g1", "k2", "c2", "g2"),
    Family.DOUBLE_EXP: ("k", "b1", "r1", "b2", "r2"),
    Family.LOGISTIC_BUMP: ("k", "c", "g", "s", "mu", "sigma"),
}

#: which parameters must be strictly positive (the bump amplitude ``s`` may be
#: negative and the bump center ``mu`` is a free location)
FAMILY_POSITIVE: dict[Family, tuple[bool, ...]] = {
    Family.TWO_COMP: (True, True, True, True),
    Family.LOGISTIC: (True, True, True),
    Family.BASS: (True, True, True),
    Family.BI_LOGISTIC: (True,) * 6,
    Family.DOUBLE_EXP: (True,) * 5,
    Family.LOGISTIC_BUMP: (True, True, True, False, False, True),
}


def family_arity(family: Family) -> int:
    return len(FAMILY_PARAMS[family])


@dataclass(frozen=True)
class ThetaTwoComp:
    """Parameters of the two-component curve.

    Invariants: alpha > 0, beta > 0, n0 >= 0, umax >= 0. By construction
    A(0) = n0 and A(t) -> umax as t -> infinity.
    """

    n0: float
    alpha: float
    umax: float
    beta: float

    def __post_init__(self):
        vals = (self.n0, self.alpha, self.umax, self.beta)
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"non-finite parameter in {vals}")
        if self.alpha <= 0 or self.beta <= 0:
            raise ValidationError(
                f"rates must be strictly positive, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.n0 < 0 or self.umax < 0:
            raise ValidationError(
                f"levels must be nonnegative, got n0={self.n0}, umax={self.umax}"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.n0, self.alpha, self.umax, self.beta], dtype=float)

    @classmethod
    def from_array(cls, values) -> "ThetaTwoComp":
        n0, alpha, umax, beta = (float(v) for v in values)
        return cls(n0=n0, alpha=alpha, umax=umax, beta=beta)


@dataclass(frozen=True)
class ComparatorParams:
    """A comparator family tag plus its ordered parameter values."""

    family: Family
    values: tuple[float, ...]

    def __post_init__(self):
        family = Family(self.family)
        object.__setattr__(self, "family", family)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        names = FAMILY_PARAMS[family]
        if len(vals) != len(names):
            raise ValidationError(
                f"{family.value} takes {len(names)} parameters {names}, got {len(vals)}"
            )
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"non-finite parameter in {vals}")
        for name, v, pos in zip(names, vals, FAMILY_POSITIVE[family]):
            if pos and v <= 0:
                raise ValidationError(f"{family.value}: parameter {name} must be > 0, got {v}")


class PhaseKind(str, Enum):
    TROUGH = "trough"
    OVERSHOOT = "overshoot"
    MONOTONE_INCREASE = "monotone_increase"
    MONOTONE_DECREASE = "monotone_decrease"
    DEGENERATE_EQUAL_RATES = "degenerate_equal_rates"


@dataclass(frozen=True)
class PhaseReport:
    """Phase classification of a two-component curve.

    ``t_star`` and ``second_derivative_at_tstar`` are present exactly when the
    curve has an interior extremum (trough or overshoot). ``ratio_r`` is
    r = beta*umax / (alpha*n0), infinite when n0 == 0.
    """

    kind: PhaseKind
    t_star: float | None
    ratio_r: float
    second_derivative_at_tstar: float | None


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_times(t):
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValidationError("times must be finite")
    if np.any(t < 0):
        raise ValidationError("times must be nonnegative")
    return t


def _eval_values(family: Family, values, t):
    if family == Family.TWO_COMP:
        n0, alpha, umax, beta = values
        return n0 * np.exp(-alpha * t) - umax * np.expm1(-beta * t)
    if family == Family.LOGISTIC:
        k, c, g = values
        return k / (1.0 + c * np.exp(-g * t))
    if family == Family.BASS:
        k, p, q = values
        e = np.exp(-(p + q) * t)
        return k * (1.0 - e) / (1.0 + (q / p) * e)
    if family == Family.BI_LOGISTIC:
        k1, c1, g1, k2, c2, g2 = values
        return k1 / (1.0 + c1 * np.exp(-g1 * t)) + k2 / (1.0 + c2 * np.exp(-g2 * t))
    if family == Family.DOUBLE_EXP:
        k, b1, r1, b2, r2 = values
        return k - b1 * np.exp(-r1 * t) - b2 * np.exp(-r2 * t)
    if family == Family.LOGISTIC_BUMP:
        k, c, g, s, mu, sigma = values
        return k / (1.0 + c * np.exp(-g * t)) + s * np.exp(-0.5 * ((t - mu) / sigma) ** 2)
    raise ValidationError(f"unknown family {family!r}")


def eval_curve(params: ComparatorParams | ThetaTwoComp, t):
    """Evaluate a curve family at times ``t >= 0``."""
    t = _check_times(t)
    if isinstance(params, ThetaTwoComp):
        return _eval_values(Family.TWO_COMP, params.as_array(), t)
    return _eval_values(params.family, np.asarray(params.values, dtype=float), t)


#: positions, in the (alpha, beta, n0, umax) order of gradient_theta and
#: tstar_sensitivities, of the fitting order (n0, alpha, umax, beta)
FIT_ORDER = [2, 0, 3, 1]


def _gradient_values(values, t):
    n0, alpha, umax, beta = values
    ea = np.exp(-alpha * t)
    eb = np.exp(-beta * t)
    return np.stack([-n0 * t * ea, umax * t * eb, ea, 1.0 - eb], axis=-1)


def gradient_theta(theta: ThetaTwoComp, t) -> np.ndarray:
    """Partials of A(t) in the order (alpha, beta, n0, umax).

    Exactly (-n0*t*e^{-alpha t}, umax*t*e^{-beta t}, e^{-alpha t}, 1-e^{-beta t});
    scalar t gives shape (4,), an n-vector gives shape (n, 4).
    """
    return _gradient_values(theta.as_array(), _check_times(t))


# ---------------------------------------------------------------------------
# phase analysis
# ---------------------------------------------------------------------------

def _rates_equal(alpha: float, beta: float) -> bool:
    return abs(alpha - beta) <= RATE_EQ_RTOL * max(alpha, beta)


def ratio_r(theta: ThetaTwoComp) -> float:
    """r = beta*umax / (alpha*n0); +inf when n0 == 0."""
    denom = theta.alpha * theta.n0
    if denom == 0.0:
        return math.inf
    return theta.beta * theta.umax / denom


def critical_time(theta: ThetaTwoComp) -> float | None:
    """The unique interior critical point t* = ln(alpha*n0/(beta*umax))/(alpha-beta).

    Returns None when it does not exist: equal rates, a zero level, or the
    closed form landing at t* <= 0.
    """
    if theta.n0 == 0.0 or theta.umax == 0.0:
        return None
    if _rates_equal(theta.alpha, theta.beta):
        return None
    t_star = math.log(theta.alpha * theta.n0 / (theta.beta * theta.umax)) / (
        theta.alpha - theta.beta
    )
    return t_star if t_star > 0.0 else None


def monotone_condition(theta: ThetaTwoComp) -> bool:
    """True iff A is nondecreasing on [0, inf).

    Holds exactly when (i) alpha > beta and beta*umax >= alpha*n0, or
    (ii) alpha == beta and umax >= n0.
    """
    if _rates_equal(theta.alpha, theta.beta):
        return theta.umax >= theta.n0
    return theta.alpha > theta.beta and theta.beta * theta.umax >= theta.alpha * theta.n0


def classify_phase(theta: ThetaTwoComp) -> PhaseReport:
    """Classify the curve: trough, overshoot, monotone, or equal-rates.

    Equal rates are reported as their own degenerate kind. When no interior
    extremum exists, A' keeps the sign of its slower-decaying tail term
    (positive when alpha > beta, negative when alpha < beta), which settles the
    monotone direction including the A'(0)=0 boundary.
    """
    r = ratio_r(theta)
    if theta.n0 == 0.0:
        return PhaseReport(PhaseKind.MONOTONE_INCREASE, None, r, None)
    if theta.umax == 0.0:
        return PhaseReport(PhaseKind.MONOTONE_DECREASE, None, r, None)
    if _rates_equal(theta.alpha, theta.beta):
        return PhaseReport(PhaseKind.DEGENERATE_EQUAL_RATES, None, r, None)
    t_star = critical_time(theta)
    if t_star is not None:
        second = theta.alpha * theta.n0 * math.exp(-theta.alpha * t_star) * (
            theta.alpha - theta.beta
        )
        kind = PhaseKind.TROUGH if theta.alpha > theta.beta else PhaseKind.OVERSHOOT
        return PhaseReport(kind, t_star, r, second)
    kind = (
        PhaseKind.MONOTONE_INCREASE
        if theta.alpha > theta.beta
        else PhaseKind.MONOTONE_DECREASE
    )
    return PhaseReport(kind, None, r, None)


def tstar_sensitivities(theta: ThetaTwoComp) -> np.ndarray:
    """Closed-form partials of t* in the order (alpha, beta, n0, umax).

    Raises NoInteriorExtremum when the curve has no interior critical point.
    """
    t_star = critical_time(theta)
    if t_star is None:
        raise NoInteriorExtremum(
            "t* does not exist for this parameter vector (no interior extremum)"
        )
    d = theta.alpha - theta.beta
    log_ratio = math.log(theta.alpha * theta.n0 / (theta.beta * theta.umax))
    d_alpha = (d / theta.alpha - log_ratio) / d**2
    d_beta = (log_ratio - d / theta.beta) / d**2
    d_n0 = 1.0 / (d * theta.n0)
    d_umax = -1.0 / (d * theta.umax)
    return np.array([d_alpha, d_beta, d_n0, d_umax])
