"""Exception and warning types used across the package, one error type per
fault: every point that a route cannot take raises `OutsideDomain`, and every
argument at the pole of zeta raises `PoleHit`."""


class OpzetaError(Exception):
    """Base class for all package-specific errors."""


class PrecisionLoss(UserWarning):
    """Result returned outside the validated accuracy domain.

    A warning rather than an exception: the best-effort value is still
    returned, with an honest `abs_error_estimate`.
    """


class OutsideDomain(OpzetaError):
    """A point that its route cannot take: x = 0 mod 2*pi of a trivial series,
    cos x = 0 of a beta series, or a singular point of an Abel mean or of its
    closed form."""


class NotConverged(OpzetaError):
    """A series, tail or expansion did not reach the accuracy its caller needs."""


class PoleHit(OpzetaError):
    """An argument at the pole of zeta: an operator term's (argument 1 for the
    zeta kind), or a numeric s within 1e-13 of 1."""


class UnsupportedExpression(OpzetaError):
    """Input outside the engine's domain (monomials, singular powers, and
    integer-frequency trig atoms with integer shifts)."""
