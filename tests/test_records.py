"""The record types of every layer: immutable, validated where they were,
with their field names, order, defaults and repr text, and equal records
equal with equal hashes. The records are NamedTuples, so they also unpack and
compare equal to plain tuples of their fields."""

from fractions import Fraction

import pytest

from opzeta.divmatrix import ConsistencyReport, DivisibilityMatrix
from opzeta.exactnum import EvalResult, PiPolynomial, PiXPolynomial, special_value
from opzeta.operators import (
    DilationShift,
    Expression,
    ExtractedValue,
    NumericTerm,
    OpResult,
    SeriesTerm,
    SingularTerm,
    TaylorFlowResult,
    TrigAtom,
)
from opzeta.registry import IdentityRecord, Interval, get_identity
from opzeta.series import TrigSeries, abel_sums, partial_sums_accelerated
from opzeta.specfun import dirichlet_beta, recip_gamma, zeta_em

_EQ17_FIELDS = (
    "id summary kind shift trig character gamma_shift rhs_literal rhs_closed rhs_taylor domain"
    " verify_mode default_grid default_tol extract extra_check expected_event"
)


def _eq17_copy() -> IdentityRecord:
    """A new record equal to the registry's eq17, built by its field names."""
    rec = get_identity("eq17")
    return IdentityRecord(**{f: getattr(rec, f) for f in _EQ17_FIELDS.split()})


# (make, field names in order, repr text; None: the text the fields give)
RECORDS = [
    (lambda: Interval(0.0, 1.0, False, True), "lo hi lo_open hi_open",
     "Interval(lo=0.0, hi=1.0, lo_open=False, hi_open=True)"),
    (_eq17_copy, _EQ17_FIELDS, None),
    (lambda: DilationShift("zeta", 1), "kind shift", "DilationShift(kind='zeta', shift=Fraction(1, 1))"),
    (lambda: TrigAtom(1, "sin", 2), "coeff parity frequency", "TrigAtom(coeff=Fraction(1, 1), parity='sin', frequency=2)"),
    (lambda: SingularTerm(PiPolynomial([1]), -1), "coeff power", "SingularTerm(coeff=1, power=-1)"),
    (lambda: Expression(), "poly trig_atoms singular_terms", "Expression(poly=0, trig_atoms=(), singular_terms=())"),
    (lambda: SeriesTerm(Fraction(1, 2), 2, "sin", 1, "zeta"), "coeff arg_scale parity exponent kind",
     "SeriesTerm(coeff=Fraction(1, 2), arg_scale=2, parity='sin', exponent=1, kind='zeta')"),
    (lambda: NumericTerm(1, 0.5 + 0j, 1e-16), "degree value abs_error_estimate",
     "NumericTerm(degree=1, value=(0.5+0j), abs_error_estimate=1e-16)"),
    (lambda: OpResult(Expression()), "expr series_result numeric_terms",
     "OpResult(expr=Expression(poly=0, trig_atoms=(), singular_terms=()), series_result=(), numeric_terms=())"),
    (lambda: TaylorFlowResult(PiXPolynomial(), Expression()), "poly branch",
     "TaylorFlowResult(poly=0, branch=Expression(poly=0, trig_atoms=(), singular_terms=()))"),
    (lambda: ExtractedValue(0, Fraction(-1, 2), True), "argument value matched",
     "ExtractedValue(argument=0, value=Fraction(-1, 2), matched=True)"),
    (lambda: TrigSeries("cos", 2, "beta"), "parity exponent character", "TrigSeries(parity='cos', exponent=2, character='beta')"),
    (lambda: EvalResult(0.5 + 0j, 1e-16, "euler_maclaurin"), "value abs_error_estimate method",
     "EvalResult(value=(0.5+0j), abs_error_estimate=1e-16, method='euler_maclaurin')"),
    (lambda: DivisibilityMatrix(3), "size", "DivisibilityMatrix(size=3)"),
    (lambda: ConsistencyReport(1, 2, (1.0, 0.5), (Fraction(1), Fraction(1, 2)), (0.0, 0.0), 0.0),
     "n size coefficients expected deviations max_abs_deviation",
     "ConsistencyReport(n=1, size=2, coefficients=(1.0, 0.5), expected=(Fraction(1, 1), Fraction(1, 2)),"
     " deviations=(0.0, 0.0), max_abs_deviation=0.0)"),
]


@pytest.mark.parametrize("make, fields, text", RECORDS, ids=[type(make()).__name__ for make, _, _ in RECORDS])
def test_record_contract(make, fields, text):
    a, b = make(), make()
    fields = fields.split()
    if text is None:
        text = f"{type(a).__name__}({', '.join(f'{f}={getattr(a, f)!r}' for f in fields)})"
    assert repr(a) == text
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, fields[0], getattr(b, fields[0]))
    with pytest.raises(AttributeError):
        a.no_such_field = 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DilationShift("gamma", 1), "kind must be one of ('zeta', 'beta', 'recip_gamma')"),
        (lambda: TrigAtom(1, "tan", 1), "parity must be 'sin' or 'cos'"),
        (lambda: TrigAtom(1, "sin", 0), "frequency must be a positive integer"),
        (lambda: SingularTerm(PiPolynomial([1]), 0), "singular powers must be <= -1"),
        (lambda: TrigSeries("tan", 1), "parity must be 'sin' or 'cos'"),
        (lambda: TrigSeries("sin", 1, "chi"), "character must be 'trivial' or 'beta'"),
        (lambda: TrigSeries("sin", 1.0), "exponent must be an integer"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_replace_runs_the_checks():
    with pytest.raises(ValueError, match="frequency must be a positive integer"):
        TrigAtom(1, "sin", 1)._replace(frequency=0)
    with pytest.raises(ValueError, match="singular powers must be <= -1"):
        SingularTerm(PiPolynomial([1]), -2)._replace(power=1)
    with pytest.raises(ValueError, match="character must be 'trivial' or 'beta'"):
        TrigSeries("sin", 1)._replace(character="chi")


def test_coercions_and_defaults():
    assert type(DilationShift("zeta", 1).shift) is Fraction
    assert type(DilationShift("zeta", 1)._replace(shift=2).shift) is Fraction
    assert type(DilationShift(kind="beta", shift="1/2").shift) is Fraction
    assert type(TrigAtom(3, "cos", 1).coeff) is Fraction
    assert type(Expression.from_trig("sin", 2).trig_atoms[0].coeff) is Fraction
    assert Expression().is_zero() and Expression().poly == PiXPolynomial()
    assert TrigSeries("sin", 1).character == "trivial" and TrigSeries("sin", 1) == TrigSeries("sin", 1, "trivial")
    assert OpResult(Expression()) == OpResult(Expression(), (), ())


def test_records_are_tuples_of_their_fields():
    for make, fields, _ in RECORDS:
        a = make()
        assert a._fields == tuple(fields.split()) and tuple(a) == tuple(getattr(a, f) for f in a._fields)
    kind, shift = DilationShift("zeta", 1)
    assert (kind, shift) == ("zeta", Fraction(1)) == DilationShift("zeta", 1)
    assert get_identity("eq17")._replace(gamma_shift=None).gamma_shift is None
    assert isinstance(get_identity("eq17"), IdentityRecord)


def test_every_route_returns_the_one_record():
    # the kernels of zeta, beta and 1/Gamma, both series routes and the route
    # table return one record, whose method names the route that made the value
    import opzeta

    results = [zeta_em(0.5), dirichlet_beta(0.5), recip_gamma(0.5),
               *partial_sums_accelerated(TrigSeries("sin", 1), [1.0]), *abel_sums(TrigSeries("cos", 0), [1.0]),
               *(special_value(kind, Fraction(k, 2)) for kind in ("zeta", "beta", "recip_gamma") for k in (-1, 1, 2, 4))]
    assert {type(r) for r in results} == {EvalResult}
    assert {r.method for r in results} == {"exact", "pole", "euler_maclaurin", "hurwitz_difference", "rgamma",
                                           "partial_sum", "abel_closed_form"}
    assert opzeta.EvalResult is EvalResult and "SummedValue" not in opzeta.__all__
