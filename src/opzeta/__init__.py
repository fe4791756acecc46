"""opzeta: a verification lab for operator-valued zeta calculus.

Exact Bernoulli/Euler arithmetic and polynomials over Q[pi], numeric
zeta/beta/1/Gamma with Hankel-contour cross-checks, Abel summation of
divergent trigonometric series, a symbolic dilation-operator engine, and the
sine-basis divisibility matrix, all driven by an auditable identity registry.
"""

from .errors import (
    ContourClipped,
    DimensionMismatch,
    Diverges,
    EndpointConditional,
    InconsistentSystem,
    MultipleAnomalies,
    NoClosedForm,
    NonIntegerFrequency,
    NotConverged,
    OpzetaError,
    OutsideDomain,
    PoleAtOne,
    PoleHit,
    PrecisionLoss,
    SingularAtEndpoint,
    UnsupportedExpression,
)
from .exactnum import (
    PI,
    PiPolynomial,
    PiXPolynomial,
    bernoulli_number,
    bernoulli_polynomial,
    euler_number,
    pipoly_eval,
)
from .specfun import (
    EvalResult,
    clausen_closed_form,
    dirichlet_beta,
    functional_equation_residual,
    hankel_zeta,
    hurwitz_zeta,
    lerch_hankel,
    recip_gamma,
    zeta_em,
    zeta_even_pi_form,
    zeta_neg_int,
)
from .series import (
    SummedValue,
    TrigSeries,
    abel_value,
    geometric_abel,
    partial_sum,
    partial_sum_accelerated,
)
from .operators import (
    DilationShift,
    Expression,
    OpResult,
    TaylorFlowResult,
    apply_operator,
    apply_recip_gamma_op,
    dilate,
    extract_special_values,
    parity_anomaly,
    taylor_flow,
)
from .divmatrix import DivisibilityMatrix, build_matrix, consistency_check, matrix_apply
from .registry import IdentityRecord, get_identity, load_registry

__version__ = "0.1.0"

__all__ = [
    "ContourClipped", "DimensionMismatch", "Diverges", "EndpointConditional",
    "InconsistentSystem", "MultipleAnomalies", "NoClosedForm", "NonIntegerFrequency",
    "NotConverged", "OpzetaError", "OutsideDomain", "PoleAtOne", "PoleHit",
    "PrecisionLoss", "SingularAtEndpoint", "UnsupportedExpression",
    "PI", "PiPolynomial", "PiXPolynomial",
    "bernoulli_number", "bernoulli_polynomial", "euler_number", "pipoly_eval",
    "EvalResult", "clausen_closed_form", "dirichlet_beta", "functional_equation_residual",
    "hankel_zeta", "hurwitz_zeta", "lerch_hankel", "recip_gamma",
    "zeta_em", "zeta_even_pi_form", "zeta_neg_int",
    "SummedValue", "TrigSeries", "abel_value", "geometric_abel",
    "partial_sum", "partial_sum_accelerated",
    "DilationShift", "Expression", "OpResult", "TaylorFlowResult",
    "apply_operator", "apply_recip_gamma_op", "dilate", "extract_special_values",
    "parity_anomaly", "taylor_flow",
    "DivisibilityMatrix", "build_matrix", "consistency_check", "matrix_apply",
    "IdentityRecord", "get_identity", "load_registry",
    "__version__",
]
