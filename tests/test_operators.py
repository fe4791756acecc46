from fractions import Fraction

import mpmath
import pytest

from opzeta.errors import (
    PoleHit,
    UnsupportedExpression,
)
from opzeta.exactnum import special_value
from opzeta.pipoly import (
    PiPolynomial,
    PiXPolynomial,
    clausen_closed_form,
    pipoly_evaluator,
)
from opzeta.operators import (
    DilationShift,
    Expression,
    SingularTerm,
    TrigAtom,
    apply_operator,
    apply_recip_gamma_op,
    extract_special_values,
    taylor_flow,
)
from opzeta.registry import CLOSED_FORMS, cot_half_regular, get_identity, inv_one_minus_cos_regular, load_registry
from oracles import extract_special_values_per_degree, taylor_flow_per_degree


def zeta_op(shift) -> DilationShift:
    return DilationShift("zeta", Fraction(shift))


def beta_op(shift) -> DilationShift:
    return DilationShift("beta", Fraction(shift))


SAWTOOTH = clausen_closed_form("sin", 1)  # (pi - x)/2


def pi_term(degree: int, q: Fraction) -> Expression:
    """The branch term q pi x^degree."""
    return Expression(PiXPolynomial.monomial(degree, PiPolynomial.pi_power(q, 1)))


def singular(coeff: int, power: int) -> Expression:
    """The branch term coeff x^power, power <= -1."""
    return Expression(singular_terms=(SingularTerm(PiPolynomial([coeff]), power),))


class TestApplyOperator:
    def test_trivial_zero_on_cubic(self):
        r = apply_operator(zeta_op(1), Expression.from_poly(PiXPolynomial.monomial(3, 1)))
        assert r.expr.poly.is_zero()  # zeta(-2) = 0

    def test_pole_on_constant(self):
        with pytest.raises(PoleHit) as exc:
            apply_operator(zeta_op(1), Expression.from_poly(PiXPolynomial([1])))
        assert str(exc.value) == "operator argument hits the pole at monomial degree 0"

    def test_pole_on_any_constant_bearing_expression(self):
        # non-invertibility witness: anything with a constant term trips the pole
        with pytest.raises(PoleHit):
            apply_operator(zeta_op(1), Expression.from_poly(SAWTOOTH))

    def test_sine_becomes_series(self):
        r = apply_operator(zeta_op(1), Expression.from_trig("sin"))
        (term,) = r.series_result
        assert term.parity == "sin"
        assert term.exponent == 1
        assert term.kind == "zeta"
        assert term.arg_scale == 1

    def test_beta_kind_series_character(self):
        r = apply_operator(beta_op(0), Expression.from_trig("cos"))
        assert r.series_result[0].kind == "beta"

    def test_dilated_atom_scales_series_argument(self):
        r = apply_operator(zeta_op(1), Expression.from_trig("sin", frequency=4))
        assert r.series_result[0].arg_scale == 4

    @pytest.mark.parametrize("a", range(-3, 5))
    def test_eigen_action_exactness(self, a):
        for n in range(0, 13):
            if a - n == 1:
                continue
            expr = Expression.from_poly(PiXPolynomial.monomial(n, 1))
            r = apply_operator(zeta_op(a), expr)
            arg = a - n
            if arg <= 0:
                want = special_value("zeta", Fraction(arg)).value
                assert r.expr.poly.coeff(n) == PiPolynomial([want])
                assert not r.numeric_terms
            elif arg % 2 == 0:
                assert r.expr.poly.coeff(n) == special_value("zeta", Fraction(arg)).value
                assert not r.numeric_terms
            else:
                # odd zeta values >= 3: numeric route, exact part untouched
                assert r.expr.poly.coeff(n).is_zero()
                assert r.numeric_terms[0].degree == n

    def test_singular_term_action(self):
        from opzeta.operators import SingularTerm

        e = Expression(singular_terms=(SingularTerm(PiPolynomial([1]), -1),))
        r = apply_operator(zeta_op(1), e)  # argument 1 - (-1) = 2
        assert r.expr.singular_terms[0].coeff == special_value("zeta", Fraction(2)).value

    def test_singular_pole(self):
        from opzeta.operators import SingularTerm

        e = Expression(singular_terms=(SingularTerm(PiPolynomial([1]), -1),))
        with pytest.raises(PoleHit):
            apply_operator(zeta_op(0), e)  # argument 0 + 1 = 1

    def test_large_degree_no_radius_restriction(self):
        # the engine never expands about a point, so degree 200 works like degree 2
        r = apply_operator(zeta_op(5), Expression.from_poly(PiXPolynomial.monomial(200, 1)))
        assert r.expr.poly.coeff(200) == PiPolynomial([special_value("zeta", Fraction(-195)).value])

    def test_non_integer_shift_on_trig_unsupported(self):
        with pytest.raises(UnsupportedExpression):
            apply_operator(DilationShift("zeta", Fraction(1, 2)), Expression.from_trig("sin"))

    def test_recip_gamma_kind_on_monomials(self):
        op = DilationShift("recip_gamma", Fraction(0))
        r = apply_operator(op, Expression.from_poly(PiXPolynomial([1, 1, 1])))
        assert r.expr.poly.coeff(0).is_zero()  # 1/Gamma(0) = 0
        assert r.expr.poly.coeff(1) == PiPolynomial([1])  # 1/Gamma(1)
        assert r.expr.poly.coeff(2) == PiPolynomial([1])  # 1/Gamma(2)

    @pytest.mark.parametrize("shift", [Fraction(-41, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(25, 2)])
    def test_recip_gamma_numeric_bound_is_honest(self, shift):
        # 1/Gamma(-20.5) is about -3.5e18: its double is off by up to half an
        # ulp (256), so an absolute 1e-12 bound cannot hold there
        r = apply_operator(DilationShift("recip_gamma", shift), Expression.from_poly(PiXPolynomial([1])))
        (term,) = r.numeric_terms
        ctx = mpmath.MPContext()
        ctx.dps = 50
        want = ctx.rgamma(ctx.mpf(shift.numerator) / shift.denominator)
        assert abs(ctx.mpc(term.value) - want) <= term.abs_error_estimate, shift

    def test_recip_gamma_kind_on_trig_unsupported(self):
        with pytest.raises(UnsupportedExpression):
            apply_operator(DilationShift("recip_gamma", Fraction(0)), Expression.from_trig("sin"))


class TestApplyRecipGammaOp:
    def test_annihilates_constant_of_sawtooth(self):
        out = apply_recip_gamma_op(0, Expression.from_poly(SAWTOOTH))
        assert out.poly == PiXPolynomial([0, Fraction(-1, 2)])

    def test_gamma_two_is_identity_on_square(self):
        out = apply_recip_gamma_op(0, Expression.from_poly(PiXPolynomial.monomial(2, 1)))
        assert out.poly == PiXPolynomial.monomial(2, 1)

    def test_shift_one_on_constant(self):
        out = apply_recip_gamma_op(1, Expression.from_poly(PiXPolynomial([1])))
        assert out.poly == PiXPolynomial([1])

    def test_factorial_scaling(self):
        out = apply_recip_gamma_op(0, Expression.from_poly(PiXPolynomial.monomial(5, 1)))
        assert out.poly == PiXPolynomial.monomial(5, Fraction(1, 24))

    def test_non_integer_offset_rejected(self):
        with pytest.raises(UnsupportedExpression):
            apply_recip_gamma_op(Fraction(1, 2), Expression.from_poly(PiXPolynomial([1])))

    def test_trig_atom_rejected(self):
        # apply_operator's refusal: 1/Gamma has no series action on a trig atom
        with pytest.raises(UnsupportedExpression, match="no series action on trig atoms"):
            apply_recip_gamma_op(0, Expression(PiXPolynomial([1]), Expression.from_trig("sin").trig_atoms))

    def test_singular_annihilation(self):
        from opzeta.operators import SingularTerm

        e = Expression(singular_terms=(SingularTerm(PiPolynomial([1]), -1),))
        assert apply_recip_gamma_op(1, e).is_zero()  # 1/Gamma(0) kills x^-1
        out = apply_recip_gamma_op(3, e)  # 1/Gamma(2) = 1
        assert out.singular_terms[0].coeff == PiPolynomial([1])


class TestTaylorFlow:
    def test_shift1_sine_collapses_to_linear(self):
        r = taylor_flow(zeta_op(1), "sin", 6)
        assert r.poly == PiXPolynomial([0, Fraction(-1, 2)])
        assert r.branch == pi_term(0, Fraction(1, 2))

    def test_shift0_sine_matches_regrouped_expansion(self):
        r = taylor_flow(zeta_op(0), "sin", 8)
        assert r.poly == cot_half_regular(8)
        assert r.branch == singular(1, -1)

    def test_shift_minus1_cosine_matches_regrouped_expansion(self):
        r = taylor_flow(zeta_op(-1), "cos", 8)
        assert r.poly == inv_one_minus_cos_regular(8)
        assert r.branch == singular(-1, -2)

    def test_beta_sine_vanishes_identically(self):
        r = taylor_flow(beta_op(0), "sin", 6)
        assert r.poly.is_zero()
        assert r.branch == Expression()

    def test_pole_parity_match_raises(self):
        with pytest.raises(PoleHit):
            taylor_flow(zeta_op(1), "cos", 6)  # pole degree 0 is even
        with pytest.raises(PoleHit):
            taylor_flow(zeta_op(2), "sin", 6)  # pole degree 1 is odd

    def test_anomaly_flags_for_registry_shifts(self):
        assert taylor_flow(zeta_op(2), "cos", 6).branch.poly
        assert taylor_flow(zeta_op(3), "sin", 6).branch.poly
        assert taylor_flow(beta_op(1), "sin", 6).branch == Expression()

    def test_shift2_cosine_value(self):
        r = taylor_flow(zeta_op(2), "cos", 8)
        want = PiXPolynomial([special_value("zeta", Fraction(2)).value, PiPolynomial(), PiPolynomial([Fraction(1, 4)])])
        assert r.poly == want

    def test_k_minimum(self):
        with pytest.raises(ValueError):
            taylor_flow(zeta_op(0), "sin", 3)


def _outcome(f, *args):
    """("result", type, value) of f(*args), or ("raised", type, args) of what it raised."""
    try:
        value = f(*args)
        return "result", type(value), value
    except (PoleHit, UnsupportedExpression) as exc:
        return "raised", type(exc), exc.args


def _table(vals):
    """Extracted values with their exact types."""
    return [(v.argument, type(v.value), v.value, v.matched) for v in vals]


FLOW_IDS = [r.id for r in load_registry().values() if r.op is not None and r.trig is not None]
EXTRACT_IDS = [r.id for r in load_registry().values() if r.extract]


class TestAgainstPerDegreeOracles:
    """The flow and the extraction act through `apply_operator`; the
    per-degree loops they replaced (`tests/oracles.py`) give the same."""

    @pytest.mark.parametrize("K", [4, 12, 40])
    @pytest.mark.parametrize("ident", FLOW_IDS)
    def test_flow_on_every_registry_operator(self, ident, K):
        rec = get_identity(ident)
        got = _outcome(taylor_flow, rec.op, rec.trig, K)
        assert got == _outcome(taylor_flow_per_degree, rec.op, rec.trig, K)

    def test_flow_off_the_registry(self):
        # every zeta and beta shift in [-4, 8) on both trigs: the same polynomial,
        # the same PoleHit degree or the same missing exact value
        raised = []
        for kind in ("zeta", "beta"):
            for shift in range(-4, 8):
                for trig in ("sin", "cos"):
                    op = DilationShift(kind, Fraction(shift))
                    got = _outcome(taylor_flow, op, trig, 12)
                    assert got == _outcome(taylor_flow_per_degree, op, trig, 12), (kind, shift, trig)
                    if got[0] == "raised":
                        raised.append((got[1].__name__, kind, shift, trig))
        unsupported = [r for r in raised if r[0] == "UnsupportedExpression"]
        # beta(2m) has no exact form: beta at shift 2, 4, 6 (cos) and 3, 5, 7 (sin)
        assert len(unsupported) == 6 and all(r[1] == "beta" for r in unsupported)
        assert len(raised) == 13  # and PoleHit at zeta shifts 1 to 7, one trig each

    @pytest.mark.parametrize("terms", [1, 6, 40])
    @pytest.mark.parametrize("ident", EXTRACT_IDS)
    def test_extraction_on_every_extract_id(self, ident, terms):
        rec = get_identity(ident)
        assert _table(extract_special_values(rec, terms)) == _table(extract_special_values_per_degree(rec, terms))

    @pytest.mark.parametrize("gamma_shift", [-2, 0, 3])
    @pytest.mark.parametrize("ident", ["eq18", "eq21_sin", "beta_cos_s0"])
    def test_extraction_through_recip_gamma(self, ident, gamma_shift):
        # the registry's one 1/Gamma record, eq17, has a single nonzero coefficient, so it
        # cannot tell a 1/Gamma factor from none; these right sides can, and each degree
        # with gamma_shift + d <= 0 (1/Gamma = 0 there) drops its equation
        rec = get_identity(ident)._replace(gamma_shift=gamma_shift)
        got = _table(extract_special_values(rec, 6))
        assert got == _table(extract_special_values_per_degree(rec, 6))
        start = 1 if rec.trig == "sin" else 0
        assert len(got) == sum(gamma_shift + d > 0 for d in range(start, start + 12, 2))

    @pytest.mark.parametrize(
        "op",
        [DilationShift("zeta", Fraction(1, 2)), DilationShift("beta", Fraction(1, 2)), DilationShift("recip_gamma", Fraction(1))],
    )
    def test_flow_rejects_a_rational_shift_and_recip_gamma(self, op):
        with pytest.raises(UnsupportedExpression):
            taylor_flow(op, "sin", 6)


class TestParityAnomaly:
    """The term that breaks the parity of a Clausen closed form is the branch
    term of its flow, from the Mellin rule."""

    def test_sawtooth_constant(self):
        assert taylor_flow(zeta_op(1), "sin", 6).branch.poly == PiXPolynomial([PiPolynomial.pi_power(Fraction(1, 2), 1)])

    def test_quadratic_linear_term(self):
        assert taylor_flow(zeta_op(2), "cos", 6).branch == pi_term(1, Fraction(-1, 2))

    def test_cubic_square_term(self):
        assert taylor_flow(zeta_op(3), "sin", 6).branch == pi_term(2, Fraction(-1, 4))

    def test_none_when_parity_clean(self):
        # sum cos(n x) and sum n sin(n x) have no pole at 0: the trig factor kills zeta's residue
        assert taylor_flow(zeta_op(0), "cos", 6).branch == Expression()
        assert taylor_flow(zeta_op(-1), "sin", 6).branch == Expression()

    @pytest.mark.parametrize("m", range(1, 41))
    def test_clausen_forms_have_exactly_one_anomaly(self, m):
        # the flow (all of whose terms have the trig's parity) plus the one branch monomial is the closed form
        for trig, shift in (("sin", 2 * m - 1), ("cos", 2 * m)):
            flow = taylor_flow(zeta_op(shift), trig, m + 4)
            assert flow.poly + flow.branch.poly == clausen_closed_form(trig, m), trig
            assert [d for d, c in enumerate(flow.branch.poly.coeffs) if c] == [shift - 1], trig
            assert flow.branch.singular_terms == ()


def _at(expr: Expression, x: float) -> float:
    """An expression of polynomial and singular terms at x."""
    return pipoly_evaluator(expr.poly)(x) + sum(float(t.coeff) * x**t.power for t in expr.singular_terms)


def _derivative(expr: Expression, sign: int = 1) -> Expression:
    """sign * d/dx of an expression of singular terms alone."""
    return Expression(singular_terms=tuple(SingularTerm(t.coeff * (sign * t.power), t.power - 1) for t in expr.singular_terms))


class TestBranchTerm:
    @pytest.mark.parametrize("ident, closed", [("eq1", "sin_over_one_minus_cos"), ("eq21_sin", "sin_over_one_minus_cos"),
                                               ("sec4_cos", "neg_inv_one_minus_cos")])
    def test_singular_branch_completes_the_closed_form(self, ident, closed):
        rec = get_identity(ident)
        flow = taylor_flow(rec.op, rec.trig, 12)
        assert flow.branch.singular_terms and flow.branch.poly.is_zero()
        for x in (0.3, 0.1):
            assert abs(CLOSED_FORMS[closed](x) - _at(flow.branch, x) - pipoly_evaluator(flow.poly)(x)) <= 1e-12, x

    def test_beta_ids_have_no_branch(self):
        beta = [rec for rec in load_registry().values() if rec.kind == "beta"]
        assert len(beta) == 3
        for rec in beta:
            assert taylor_flow(rec.op, rec.trig, 12).branch == Expression(), rec.id

    def test_derivative_recursion(self):
        # d/dx sum n^-a sin(n x) = sum n^-(a-1) cos(n x), and d/dx of the cosine series is minus the sine series
        # from shift 0, where sum sin(n x) = sin x/(2(1 - cos x)) has the pole 1/x and sum cos(n x) = -1/2 none
        branch = {(trig, a): taylor_flow(zeta_op(a), trig, 4).branch for trig in ("sin", "cos") for a in range(-21, 1)}
        assert branch["sin", 0] == singular(1, -1) and branch["cos", 0] == Expression()
        for a in range(0, -21, -1):
            assert branch["cos", a - 1] == _derivative(branch["sin", a]), a
            assert branch["sin", a - 1] == _derivative(branch["cos", a], -1), a


class TestRoundTrip:
    def test_composite_routes_agree(self):
        # closed-form route: 1/Gamma(iD) on (pi - x)/2
        route_a = apply_recip_gamma_op(0, Expression.from_poly(SAWTOOTH)).poly
        # term-by-term route: flow first, then 1/Gamma(iD)
        flow = taylor_flow(zeta_op(1), "sin", 12)
        route_b = apply_recip_gamma_op(0, Expression.from_poly(flow.poly)).poly
        want = PiXPolynomial([0, Fraction(-1, 2)])
        assert route_a == route_b == want

    def test_anomaly_accounting_rebuilds_closed_forms(self):
        reg = load_registry()
        for ident in ("eq2", "eq3_1", "eq3_2", "eq3_3", "eq4_1", "eq4_2", "eq4_3", "eq10", "eq18", "eq19"):
            rec = reg[ident]
            flow = taylor_flow(rec.op, rec.trig, 12)
            assert flow.branch.poly, ident
            assert flow.poly + flow.branch.poly == rec.rhs_poly, ident

    def test_singularity_removal_all_orders(self):
        for k in (4, 7, 10):
            assert taylor_flow(zeta_op(0), "sin", k).poly == cot_half_regular(k)
            assert taylor_flow(zeta_op(-1), "cos", k).poly == inv_one_minus_cos_regular(k)


class TestExtraction:
    def test_eq17_values(self):
        vals = extract_special_values(get_identity("eq17"), 6)
        table = {v.argument: (v.value, v.matched) for v in vals}
        assert table[0] == (Fraction(-1, 2), True)
        for k in range(1, 6):
            assert table[-2 * k] == (Fraction(0), True)

    def test_beta_sine_zeros(self):
        vals = extract_special_values(get_identity("beta_sin_s0"), 5)
        assert [v.argument for v in vals] == [-1, -3, -5, -7, -9]
        assert all(v.value == 0 and v.matched for v in vals)

    def test_beta_cosine_euler_halves(self):
        vals = extract_special_values(get_identity("beta_cos_s0"), 3)
        table = {v.argument: v.value for v in vals}
        assert table[0] == Fraction(1, 2)
        assert table[-2] == Fraction(-1, 2)
        assert table[-4] == Fraction(5, 2)
        assert all(v.matched for v in vals)

    def test_eq18_includes_pi_form(self):
        vals = extract_special_values(get_identity("eq18"), 4)
        table = {v.argument: v.value for v in vals}
        assert table[2] == special_value("zeta", Fraction(2)).value
        assert table[0] == Fraction(-1, 2)
        assert table[-2] == 0

    def test_flow_identities_solve_negative_odd_values(self):
        for ident in ("eq21_sin", "sec4_cos"):
            vals = extract_special_values(get_identity(ident), 4)
            table = {v.argument: v.value for v in vals}
            assert table[-1] == Fraction(-1, 12)
            assert table[-3] == Fraction(1, 120)
            assert all(v.matched for v in vals)

    def test_rejects_identity_without_exact_rhs(self):
        with pytest.raises(ValueError):
            extract_special_values(get_identity("eq1"), 6)


class TestExpressionValidation:
    def test_frequency_positive(self):
        with pytest.raises(ValueError):
            TrigAtom(Fraction(1), "sin", 0)

    def test_singular_power_negative(self):
        from opzeta.operators import SingularTerm

        with pytest.raises(ValueError):
            SingularTerm(PiPolynomial([1]), 0)

    def test_zero_expression(self):
        assert Expression().is_zero()
        assert not Expression.from_trig("sin").is_zero()

    def test_dilation_shift_validation(self):
        with pytest.raises(ValueError):
            DilationShift("theta", Fraction(1))
        op = DilationShift("zeta", 2)
        assert op.shift == Fraction(2)
