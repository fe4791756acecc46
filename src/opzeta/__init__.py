"""opzeta: a verification lab for operator-valued zeta calculus.

Exact Bernoulli/Euler arithmetic and polynomials over Q[pi], numeric zeta and
beta by Euler-Maclaurin and 1/Gamma, Abel summation of divergent
trigonometric series, a symbolic dilation-operator engine, and the sine-basis
divisibility matrix, all driven by an auditable identity registry.
"""

from importlib import import_module

from . import errors
from .errors import (
    NotConverged,
    OpzetaError,
    OutsideDomain,
    PoleHit,
    PrecisionLoss,
    UnsupportedExpression,
)

# every other public name is imported from its layer on first access (PEP
# 562), so that a command loads only the layers it uses
_LAYER_OF = {
    name: layer
    for layer, names in {
        "exactnum": "EvalResult bernoulli_number euler_number",
        "pipoly": "PI PiPolynomial PiXPolynomial bernoulli_polynomial clausen_closed_form",
        "specfun": "dirichlet_beta recip_gamma zeta_em",
        "series": "TrigSeries abel_sums geometric_abel partial_sums_accelerated",
        "operators": "DilationShift Expression OpResult TaylorFlowResult apply_operator apply_recip_gamma_op"
        " extract_special_values taylor_flow",
        "divmatrix": "DivisibilityMatrix build_matrix consistency_check",
        "registry": "IdentityRecord get_identity load_registry",
    }.items()
    for name in names.split()
}


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{layer}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"

# the error types of `errors`, then every layer's names
__all__ = [name for name, obj in vars(errors).items() if isinstance(obj, type)] + [*_LAYER_OF, "__version__"]
