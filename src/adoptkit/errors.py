"""Exception hierarchy.

Two bases matter for callers (and for CLI exit codes): ValidationError for bad
inputs, NumericalError for computations that could not be completed on valid
inputs. Everything derives from AdoptkitError.
"""

from __future__ import annotations

import numpy as np


class AdoptkitError(Exception):
    pass


class ValidationError(AdoptkitError, ValueError):
    """Invalid arguments or malformed data."""


class NumericalError(AdoptkitError, RuntimeError):
    """A numerically degenerate or failed computation on valid inputs."""


# What a loop over fits or replicates counts as one failure and skips: the
# package's own errors and numpy's numerical ones. Anything else is a bug and
# propagates.
RECOVERABLE = (AdoptkitError, np.linalg.LinAlgError, FloatingPointError)


# -- estimation -------------------------------------------------------------

class NonConvergence(NumericalError):
    """Optimizer exhausted its iteration budget without converging."""


class SingularJacobian(NumericalError):
    """J'J condition number beyond 1e12; covariance is meaningless."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class InsufficientData(ValidationError):
    pass


class DegenerateIdentification(NumericalError):
    """Boundary-moment identification is ill-posed (umax ~= a0)."""


class NoPositiveRoot(NumericalError):
    """The identification quadratic has no admissible positive root."""


class NoInteriorExtremum(NumericalError):
    """Requested a critical-point quantity for a curve without one."""


class WindowInfeasible(NumericalError):
    """No window length satisfies the preregistered pre/post rule."""


class DegenerateDesign(ValidationError):
    """Regression design with no usable variation."""


class CollinearDesign(ValidationError):
    pass


# -- information matrices ---------------------------------------------------

class PoissonBoundary(ValidationError):
    """Poisson rate kappa*A(t) is nonpositive at a design point."""


class BinomialBoundary(ValidationError):
    """Binomial success probability A(t)/M outside (0,1)."""


class SingularNuisance(NumericalError):
    """Nuisance information block is numerically singular; profiling aborted.

    Carries the unprofiled (alpha, beta) information block so callers can
    still inspect the raw curvature.
    """

    def __init__(self, message: str, unprofiled=None):
        super().__init__(message)
        self.unprofiled = unprofiled


# -- diagnostics ------------------------------------------------------------

class ZeroResidualNorm(NumericalError):
    pass


class DegenerateRegressor(ValidationError):
    pass


class ZeroVariance(NumericalError):
    pass


class TooShort(ValidationError):
    pass


# -- economics --------------------------------------------------------------

class NonpositiveLowerBound(NumericalError):
    """Robust threshold undefined: lower confidence bound on mu_C <= 0."""


# -- I/O --------------------------------------------------------------------

class ParseError(ValidationError):
    def __init__(self, message: str, row: int | None = None, column: str | None = None):
        loc = ""
        if row is not None:
            loc += f" (row {row}"
            loc += f", column {column})" if column is not None else ")"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class NonMonotoneTime(ValidationError):
    pass
