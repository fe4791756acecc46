"""Symbolic dilation-operator engine.

The generator is D = x p with p = -i d/dx, so exp(i*lambda*D) rescales the
argument: f(x) -> f(e^lambda x), and i*D has eigenvalue alpha on x^alpha.
Operators act only on the eigenbasis: monomials (including negative powers)
pick up the scalar zeta(shift - n), beta(shift - n), or 1/Gamma(shift + n),
exact, numeric or the pole as `exactnum.special_value` routes it;
unit-coefficient trig atoms map to symbolic series (`SeriesTerm`). The engine
never expands an operator function in powers of D about a point - every
monomial degree is handled independently, which is what makes the pole at
argument 1 an explicit, typed event (PoleHit) instead of a divergent expansion.

`apply_operator` is the only place a term meets an operator value: the flow
(`taylor_flow`) is `apply_operator` on the exact Taylor polynomial of sin or
cos, and `extract_special_values` reads the factor of each unknown value off
that same polynomial, for the registry record its caller passes. One rule,
`_branch_term`, gives the branch term that the flow loses: the residue at
zeta's pole of the Mellin-Barnes integrand (DLMF 1.14(iv), 25.12). The engine
imports no layer but `errors` and the exact layer, `exactnum` and its
polynomials in `pipoly`. Every record is a NamedTuple;
`DilationShift`, `TrigAtom` and `SingularTerm` check and coerce their fields
in `__new__`; a `DilationShift` takes the kinds `special_value` routes, the
keys of `exactnum.NUMERIC_ROUTE`, and the flow the L-function kinds, the rows
of `exactnum.CHARACTERS`, of which only the principal row (zeta) has a pole.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple, Union

from .errors import PoleHit, UnsupportedExpression
from .exactnum import CHARACTERS, NUMERIC_ROUTE, special_value
from .pipoly import PiPolynomial, PiXPolynomial


class DilationShift(NamedTuple("DilationShift", [("kind", str), ("shift", Fraction)])):
    """Operator kind(shift - iD) for zeta/beta, kind(shift + iD) for
    recip_gamma; the shift is exact.

    Only the shift is stored. The symmetrized generator x p + p x equals
    2D - i, so kind((1/2)((2*shift + 1) - i(x p + p x))) denotes the same
    operator; callers wanting that form derive it from the shift.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` builds through `__new__`

    def __new__(cls, kind: str, shift):
        if kind not in NUMERIC_ROUTE:
            raise ValueError(f"kind must be one of {tuple(NUMERIC_ROUTE)}")
        return super().__new__(cls, kind, Fraction(shift))


class TrigAtom(NamedTuple("TrigAtom", [("coeff", Fraction), ("parity", str), ("frequency", int)])):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` builds through `__new__`

    def __new__(cls, coeff, parity: str, frequency: int):
        if parity not in ("sin", "cos"):
            raise ValueError("parity must be 'sin' or 'cos'")
        if frequency < 1:
            raise ValueError("frequency must be a positive integer")
        return super().__new__(cls, Fraction(coeff), parity, frequency)


class SingularTerm(NamedTuple("SingularTerm", [("coeff", PiPolynomial), ("power", int)])):
    """coeff * x^power with power <= -1."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` builds through `__new__`

    def __new__(cls, coeff: PiPolynomial, power: int):
        if power > -1:
            raise ValueError("singular powers must be <= -1")
        return super().__new__(cls, coeff, power)


class Expression(NamedTuple):
    """Exact polynomial part + trig atoms + singular powers; empty = 0."""

    poly: PiXPolynomial = PiXPolynomial()
    trig_atoms: tuple[TrigAtom, ...] = ()
    singular_terms: tuple[SingularTerm, ...] = ()

    @classmethod
    def from_poly(cls, poly: PiXPolynomial) -> "Expression":
        return cls(poly=poly)

    @classmethod
    def from_trig(cls, parity: str, coeff=1, frequency: int = 1) -> "Expression":
        return cls(trig_atoms=(TrigAtom(Fraction(coeff), parity, frequency),))

    def is_zero(self) -> bool:
        return self.poly.is_zero() and not self.trig_atoms and not self.singular_terms


class SeriesTerm(NamedTuple):
    """coeff * sum_n chi(n) parity(n * arg_scale * x) / n^exponent, chi the
    character of the operator kind: trivial for zeta, beta's for beta."""

    coeff: Fraction
    arg_scale: int
    parity: str
    exponent: int
    kind: str


class NumericTerm(NamedTuple):
    """Operator value without an exact form (kept out of the exact poly)."""

    degree: int
    value: complex
    abs_error_estimate: float


class OpResult(NamedTuple):
    expr: Expression
    series_result: tuple[SeriesTerm, ...] = ()
    numeric_terms: tuple[NumericTerm, ...] = ()


class TaylorFlowResult(NamedTuple):
    """Truncated term-by-term operator action on a trig Taylor expansion,
    and the branch term that term-by-term application loses: the operator
    image is poly + branch, up to the truncation."""

    poly: PiXPolynomial
    branch: Expression


ExactValue = Union[Fraction, PiPolynomial]


def apply_operator(op: DilationShift, expr: Expression) -> OpResult:
    """Apply kind(shift -+ iD) to the expression in its eigenbasis.

    Monomial x^n picks up the value at shift - n (shift + n for recip_gamma),
    exact whenever one exists; singular x^-k behaves as degree -k. A trig atom
    maps to the symbolic series sum_n chi(n) trig(n * freq * x) / n^shift. An
    argument equal to 1 for the zeta kind raises PoleHit.
    """
    # the argument shift -+ degree as one Fraction of ints: no Fraction arithmetic per term
    num, den = op.shift.numerator, op.shift.denominator
    step = den if op.kind == "recip_gamma" else -den

    out_coeffs: list[PiPolynomial] = [PiPolynomial()] * len(expr.poly.coeffs)
    numeric: list[NumericTerm] = []

    def handle(degree: int, coeff: PiPolynomial):
        r = special_value(op.kind, Fraction(num + step * degree, den))
        if r.method == "pole":
            raise PoleHit(f"operator argument hits the pole at monomial degree {degree}")
        if r.method != "exact":
            cnum = float(coeff)
            numeric.append(NumericTerm(degree, cnum * r.value, abs(cnum) * r.abs_error_estimate + 1e-16))
            return None
        return coeff * r.value

    for n, c in enumerate(expr.poly.coeffs):
        if c.coeffs and (res := handle(n, c)) is not None:
            out_coeffs[n] = res

    singular_out: list[SingularTerm] = []
    for term in expr.singular_terms:
        res = handle(term.power, term.coeff)
        if res is not None and not res.is_zero():
            singular_out.append(SingularTerm(res, term.power))

    series_terms: list[SeriesTerm] = []
    for atom in expr.trig_atoms:
        if op.kind == "recip_gamma":
            raise UnsupportedExpression("1/Gamma of the dilation generator has no series action on trig atoms")
        if den != 1:
            raise UnsupportedExpression("trig atoms need an integer shift (series weight is n^-shift)")
        series_terms.append(SeriesTerm(atom.coeff, atom.frequency, atom.parity, num, op.kind))

    return OpResult(
        expr=Expression(PiXPolynomial(out_coeffs), (), tuple(singular_out)),
        series_result=tuple(series_terms),
        numeric_terms=tuple(numeric),
    )


def apply_recip_gamma_op(b, expr: Expression) -> Expression:
    """Apply 1/Gamma(b + iD) exactly: x^n -> x^n / Gamma(b + n).

    The values come from the same route table as `apply_operator`: terms
    with b + n a nonpositive integer are annihilated (coefficient set to
    exact zero), positive integers use 1/(b+n-1)!. Requires integer b so
    every coefficient stays exact; `apply_operator` refuses a trig atom.
    """
    b = Fraction(b)
    if b.denominator != 1:
        raise UnsupportedExpression("non-integer offsets leave Q[pi]; use apply_operator's numeric path")
    return apply_operator(DilationShift("recip_gamma", b), expr).expr


def _taylor(trig: str, terms: int) -> PiXPolynomial:
    """The first `terms` nonzero Taylor terms of sin or cos, exactly:
    (-1)^j x^d / d! at d = 2j + 1 (sin) or 2j (cos)."""
    start = 1 if trig == "sin" else 0
    coeffs = [PiPolynomial()] * (start + 2 * terms - 1)
    for j in range(terms):
        d = start + 2 * j
        coeffs[d] = PiPolynomial((Fraction((-1) ** j, factorial(d)),))
    return PiXPolynomial(coeffs)


_QUARTER_TURNS = {"sin": (0, 1, 0, -1), "cos": (1, 0, -1, 0)}  # trig(pi k/2) at k = 0, 1, 2, 3 mod 4


def _branch_term(trig: str, shift: int) -> Expression:
    """What term-by-term application of zeta(shift - iD) to trig x loses: the
    residue at zeta's pole w = 1 - shift of zeta(shift + w) M(w) x^-w, where
    M(w) = Gamma(w) trig(pi w/2) is the Mellin transform of trig (DLMF 1.14(iv),
    25.12). At w >= 1 it is (w - 1)! trig(pi w/2) x^-w. At w = -m <= 0, where
    trig(pi w/2) = 0, it is Gamma's residue (-1)^m/m! times (pi/2) trig'(pi w/2)
    x^m; elsewhere there the two poles meet in a logarithm, and PoleHit is raised."""
    w, turns = 1 - shift, _QUARTER_TURNS[trig]
    if w >= 1:
        c = factorial(w - 1) * turns[w % 4]
        return Expression(singular_terms=(SingularTerm(PiPolynomial((c,)), -w),)) if c else Expression()
    if turns[w % 4]:
        raise PoleHit(f"operator argument hits the pole at monomial degree {-w}")
    c = Fraction((-1) ** -w * turns[(w + 1) % 4], 2 * factorial(-w))  # trig'(t) = trig(t + pi/2)
    return Expression(PiXPolynomial.monomial(-w, PiPolynomial.pi_power(c, 1)))


def taylor_flow(op: DilationShift, trig: str, K: int) -> TaylorFlowResult:
    """`apply_operator` on the exact polynomial of the first K Taylor terms
    of sin or cos, which must stay in Q[pi] (UnsupportedExpression where a
    value has no exact form), and the branch term of `_branch_term`, whose
    PoleHit concerns the full series, not K; beta's branch is empty, as its
    L-function is entire."""
    if K < 4:
        raise ValueError("K must be >= 4")
    if trig not in ("sin", "cos"):
        raise ValueError("trig must be 'sin' or 'cos'")
    if op.kind not in CHARACTERS:
        raise UnsupportedExpression("taylor_flow drives zeta/beta kinds")
    if op.shift.denominator != 1:
        raise UnsupportedExpression("taylor_flow needs an integer shift for exact values")
    shift = int(op.shift)

    # only the principal row has a pole; past the rule's check no Taylor degree meets it
    branch = _branch_term(trig, shift) if len(CHARACTERS[op.kind]) == 1 else Expression()
    flow = apply_operator(op, Expression.from_poly(_taylor(trig, K)))
    if flow.numeric_terms:
        arg = shift - flow.numeric_terms[0].degree
        raise UnsupportedExpression(f"no exact value at argument {arg}; taylor_flow stays in Q[pi]")
    return TaylorFlowResult(flow.expr.poly, branch)


class ExtractedValue(NamedTuple):
    """One special value inferred by coefficient matching.

    `argument` is the integer point, `value` the solved exact value
    (Fraction, or PiPolynomial when a power of pi is involved), `matched`
    whether it agrees with the module's independent exact value.
    """

    argument: int
    value: ExactValue
    matched: bool


def extract_special_values(rec, terms: int) -> list[ExtractedValue]:
    """Equate term-by-term operator coefficients against the exact closed-form
    coefficients of the registry record `rec` and solve for the operator's
    special values.

    Each unknown kind(shift - d) appears at exactly one degree d, as a factor
    of the Taylor coefficient of x^d in the polynomial `taylor_flow` acts on
    (after 1/Gamma(gamma_shift + iD) where the record has one; a degree it
    annihilates carries no equation, and the branch term's degree carries no
    Taylor term). The solved value is marked `matched` when it equals the
    independent exact value from `special_value`. Raises ValueError if the
    identity has no exact right side.
    """
    rhs = rec.exact_rhs(terms)
    if rhs is None:
        raise ValueError(f"identity {rec.id!r} has no exact polynomial right side")
    if rec.kind is None:
        raise ValueError(f"identity {rec.id!r} is not an operator-on-trig identity")

    taylor = Expression.from_poly(_taylor(rec.trig, terms))
    if rec.gamma_shift is not None:
        taylor = apply_recip_gamma_op(rec.gamma_shift, taylor)
    out: list[ExtractedValue] = []
    for d, factor in enumerate(taylor.poly.coeffs):
        if not factor.coeffs:
            continue  # no Taylor term, or one 1/Gamma annihilates: no equation
        arg = rec.shift - d
        value = rhs.coeff(d) / factor.coeffs[0]  # the factor is a nonzero rational
        if value.is_rational():
            value = value.as_rational()
        independent = special_value(rec.kind, Fraction(arg))
        # PiPolynomial.__eq__ accepts rationals, so mixed comparisons stay exact
        matched = independent.method == "exact" and independent.value == value
        out.append(ExtractedValue(arg, value, bool(matched)))
    return out
