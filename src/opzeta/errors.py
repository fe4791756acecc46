"""Exception and warning types used across the package."""

from __future__ import annotations


class OpzetaError(Exception):
    """Base class for all package-specific errors."""


# --- special functions -------------------------------------------------------

class PoleAtOne(OpzetaError):
    """Evaluation requested at (or within tolerance of) the simple pole s = 1."""


class PrecisionLoss(UserWarning):
    """Result returned outside the validated accuracy domain.

    A warning rather than an exception: the best-effort value is still
    returned, with an honest `abs_error_estimate`.
    """


# --- series ------------------------------------------------------------------

class EndpointConditional(OpzetaError):
    """Conditionally convergent series evaluated at an endpoint where the
    partial-sum bound degenerates."""


class SingularAtEndpoint(OpzetaError):
    """Closed form singular at the requested point (x = 0 mod 2*pi)."""


class OutsideDomain(OpzetaError):
    """Point lies outside the validity domain of the requested closed form."""


class NotConverged(OpzetaError):
    """A series, tail or expansion did not reach the accuracy its caller needs."""


# --- operator engine ---------------------------------------------------------

class PoleHit(OpzetaError):
    """An operator argument landed on the pole (argument 1 for the zeta kind).

    `degree` is the monomial degree responsible.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"operator argument hits the pole at monomial degree {degree}")


class UnsupportedExpression(OpzetaError):
    """Input outside the engine's domain (monomials, singular powers, and
    integer-frequency trig atoms with integer shifts)."""


class MultipleAnomalies(OpzetaError):
    """More than one parity-violating term found; indicates a registry bug."""

