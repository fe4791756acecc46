import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath
import pytest

from opzeta.exactnum import (
    bernoulli_number,
    euler_number,
    special_value,
)
from opzeta.pipoly import (
    PI,
    PiPolynomial,
    PiXPolynomial,
    bernoulli_polynomial,
    pipoly_evaluator,
)
from opzeta import exactnum, registry
from opzeta.errors import NotConverged
from opzeta.registry import (
    TAYLOR_GENERATORS,
    cot_half_regular,
    half_sec_series,
    inv_one_minus_cos_regular,
    load_registry,
    log_sec_plus_tan_half_series,
)
from oracles import (
    TAYLOR_BY_NUMBERS,
    bernoulli_akiyama_tanigawa,
    bernoulli_from_generating_function,
    bernoulli_poly_coeffs,
    euler_from_generating_function,
    nint_l_value_mpmath,
    pi_poly_mpf,
    pipoly_evaluator_mpf,
    small_numbers_fraction,
)


class TestBernoulliNumbers:
    def test_minus_half_convention(self):
        assert bernoulli_number(1) == Fraction(-1, 2)

    def test_b0(self):
        assert bernoulli_number(0) == 1

    def test_b2_akiyama_tanigawa(self):
        assert bernoulli_number(2) == bernoulli_akiyama_tanigawa(2)[2] == Fraction(1, 6)

    def test_against_akiyama_tanigawa(self):
        oracle = bernoulli_akiyama_tanigawa(30)
        for n in range(31):
            assert bernoulli_number(n) == oracle[n], n

    def test_generating_function_k40(self):
        # sum_{k<=40} B_k t^k/k! must be the exact Taylor expansion of t/(e^t - 1)
        oracle = bernoulli_from_generating_function(40)
        for k in range(41):
            assert bernoulli_number(k) == oracle[k], k

    def test_odd_vanish_up_to_51(self):
        for n in range(3, 52, 2):
            assert bernoulli_number(n) == 0

    def test_b12(self):
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)


class TestBernoulliPolynomials:
    def test_b1(self):
        assert bernoulli_polynomial(1) == PiXPolynomial([Fraction(-1, 2), 1])

    def test_b0(self):
        assert bernoulli_polynomial(0) == PiXPolynomial([1])

    def test_b2(self):
        assert bernoulli_polynomial(2) == PiXPolynomial([Fraction(1, 6), -1, 1])

    @pytest.mark.parametrize("m", range(13))
    def test_binomial_sum_oracle(self, m):
        got = bernoulli_polynomial(m)
        want = bernoulli_poly_coeffs(m)
        for j in range(m + 1):
            assert got.coeff(j).as_rational() == want[j]

    @pytest.mark.parametrize("m", range(13))
    def test_endpoint_values(self, m):
        p = bernoulli_polynomial(m)
        assert p.coeff(0).as_rational() == bernoulli_number(m)
        at_one = sum(p.coeff(j).as_rational() for j in range(m + 1))
        assert at_one == (-1) ** m * bernoulli_number(m)

    def test_monic(self):
        for m in range(1, 9):
            assert bernoulli_polynomial(m).coeff(m).as_rational() == 1


class TestEulerNumbers:
    def test_small_values(self):
        assert euler_number(0) == 1
        assert euler_number(1) == 0
        assert euler_number(2) == -1
        assert euler_number(4) == 5
        assert euler_number(6) == -61

    def test_against_generating_function(self):
        oracle = euler_from_generating_function(24)
        for n in range(25):
            assert euler_number(n) == oracle[n], n

    def test_odd_vanish_up_to_51(self):
        for n in range(1, 52, 2):
            assert euler_number(n) == 0


class TestNumbersPastTheTable:
    def test_bernoulli_against_akiyama_tanigawa_to_401(self, oracle_numbers):
        for n in range(402):
            assert bernoulli_number(n) == oracle_numbers[0][n], n

    def test_euler_against_generating_function_to_401(self, oracle_numbers):
        for n in range(402):
            assert euler_number(n) == oracle_numbers[1][n], n

    def test_index_1000_against_mpmath(self):
        num, den = mpmath.bernfrac(1000)
        assert bernoulli_number(1000) == Fraction(int(num), int(den))
        assert euler_number(1000) == int(mpmath.eulernum(1000, exact=True))

    def test_threads_agree_with_the_oracle(self, oracle_numbers):
        # 4 threads (more than the 2 cores of the reference VM), a short switch
        # interval, and the small table built cold while they run
        rng = random.Random(9)
        ns = rng.choices(range(300, len(oracle_numbers[0])), k=64) + rng.choices(range(exactnum._TABLE_MAX + 1), k=16)
        rng.shuffle(ns)
        exactnum._small_numbers.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda n: (bernoulli_number(n), euler_number(n)), ns, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [(oracle_numbers[0][n], oracle_numbers[1][n]) for n in ns]

    def test_value_far_from_an_integer_raises(self):
        # scale (2 pi)^84 / 2 puts scale zeta(84) / (2 pi)^84 near 1/2: no integer is returned
        ctx = mpmath.MPContext()
        ctx.prec = 400
        scale = int((2 * ctx.pi) ** 84 / 2)
        with pytest.raises(NotConverged):
            exactnum._nint_l_value(scale, 84, 2, exactnum.CHARACTERS["zeta"])

    def test_table_equals_the_fraction_recurrence(self):
        # the integer recurrence over one common denominator gives the very
        # table the same recurrence gives in Fractions
        exactnum._small_numbers.cache_clear()
        bern, euler = small_numbers_fraction(exactnum._TABLE_MAX)
        assert exactnum._small_numbers() == (tuple(bern), tuple(euler))

    def test_inexact_division_raises(self, monkeypatch):
        # a wrong binomial leaves some B_m times the common denominator
        # fractional: the exact division by m + 1 must refuse it
        monkeypatch.setattr(exactnum, "comb", lambda n, k: math.comb(n, k) + 1)
        exactnum._small_numbers.cache_clear()
        with pytest.raises(ArithmeticError, match="not an integer"):
            exactnum._small_numbers()
        monkeypatch.undo()
        assert exactnum._small_numbers()[0][2] == Fraction(1, 6)

    def test_table_is_immutable_and_built_once(self):
        bern, euler = exactnum._small_numbers()
        assert exactnum._small_numbers() == (bern, euler)
        assert exactnum._small_numbers()[0] is bern
        assert isinstance(bern, tuple) and isinstance(euler, tuple)
        assert len(bern) == len(euler) == exactnum._TABLE_MAX + 1


class TestPiPolynomial:
    def test_trim_and_zero(self):
        assert PiPolynomial([0, 0]).is_zero()
        assert PiPolynomial([1, 0]).degree == 0

    def test_arithmetic(self):
        p = PI * Fraction(1, 2) + PiPolynomial([Fraction(1, 3)])
        q = p - PI * Fraction(1, 2)
        assert q == PiPolynomial([Fraction(1, 3)])
        assert (PI * PI).coeffs == (Fraction(0), Fraction(0), Fraction(1))

    def test_rational_comparison(self):
        assert PiPolynomial([Fraction(2, 3)]) == Fraction(2, 3)
        assert PiPolynomial() == 0

    def test_division(self):
        assert PI / 2 == PiPolynomial([0, Fraction(1, 2)])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            PI.coeffs = ()

    def test_equal_values_hash_equal(self):
        assert hash(PiPolynomial([1, Fraction(2, 4), 0])) == hash(PiPolynomial([Fraction(1), Fraction(1, 2)]))
        assert len({PI * 2, PI + PI, PiPolynomial([0, 2])}) == 1
        # a rational value equals its int or Fraction, so it hashes as they do
        for q in (3, Fraction(3), Fraction(-2, 7), 0):
            assert PiPolynomial((q,)) == q and hash(PiPolynomial((q,))) == hash(q), q
        assert hash(PiPolynomial()) == 0
        assert len({PiPolynomial((3,)), 3, Fraction(3)}) == 1
        assert 3 in {PiPolynomial((3,))} and PiPolynomial((Fraction(1, 2),)) in {Fraction(1, 2)}
        assert PiPolynomial([0, 1]) not in {0, 1}

    def test_repr(self):
        assert repr(PiPolynomial([Fraction(-1, 2), 0, Fraction(1, 3)])) == "-1/2 + 1/3*pi^2"
        assert repr(PiPolynomial([1, -1])) == "1 - 1*pi"
        assert repr(PiPolynomial()) == "0"

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_float_is_correctly_rounded(self, n):
        import mpmath

        ctx = mpmath.MPContext()
        ctx.dps = 80
        p = special_value("zeta", Fraction(n)).value
        want = sum(ctx.mpf(c.numerator) / c.denominator * ctx.pi ** k for k, c in enumerate(p.coeffs))
        assert float(p) == float(want)


    def test_pi_literal_against_mpmath(self):
        ctx = mpmath.MPContext()
        ctx.dps = 80
        assert exactnum._pi_block(1) >> 768 == int(ctx.floor(ctx.pi * 2**256))

    def test_float_same_double_as_the_mpf_route(self):
        # every exact zeta/beta value in Q[pi] at |k| <= 400: the same double as
        # Horner in pi at 35 digits, the route of float() before it was integer
        forms = [special_value("zeta", Fraction(n)).value for n in range(2, 401, 2)]
        forms += [special_value("beta", Fraction(n)).value for n in range(1, 400, 2)]
        for p in forms:
            assert float(p) == pipoly_evaluator_mpf(PiXPolynomial([p]))(0), p.degree

    def test_float_of_sums_and_zero(self):
        ctx = mpmath.MPContext()
        ctx.dps = 80
        assert float(PiPolynomial([-3, 1])) == float(ctx.pi - 3)  # one digit cancels
        assert float(PiPolynomial()) == 0.0 and float(PiPolynomial([Fraction(1, 3)])) == 1 / 3
        assert float(PI * PI / 6 + Fraction(1, 7)) == pipoly_evaluator_mpf(PiXPolynomial([PI * PI / 6 + Fraction(1, 7)]))(0)


class TestPiXPolynomial:
    P = PiXPolynomial([Fraction(1, 2), PI, 0, -1])  # 1/2 + pi*x - x^3
    Q = PiXPolynomial([PI, Fraction(1, 3)])  # pi + x/3

    def test_trim_and_zero(self):
        assert PiXPolynomial([1, 0, PiPolynomial([0])]).degree == 0
        assert PiXPolynomial([0, PiPolynomial()]).is_zero()
        assert not PiXPolynomial([0])
        assert PiXPolynomial().coeff(5) == PiPolynomial()

    def test_add_sub_neg(self):
        assert self.P + self.Q == PiXPolynomial([PI + Fraction(1, 2), PI + Fraction(1, 3), 0, -1])
        assert self.P - self.Q == PiXPolynomial([-PI + Fraction(1, 2), PI - Fraction(1, 3), 0, -1])
        assert -self.P == PiXPolynomial([Fraction(-1, 2), -PI, 0, 1])
        assert (self.P - self.P).is_zero()
        # cancellation of the leading term trims the degree
        assert (self.P + PiXPolynomial.monomial(3, 1)).degree == 1

    def test_monomial(self):
        assert PiXPolynomial.monomial(2, Fraction(1, 4)) == PiXPolynomial([0, 0, Fraction(1, 4)])
        assert PiXPolynomial.monomial(1, PI).coeff(1) == PI
        assert PiXPolynomial.monomial(3, 0).is_zero()

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.P.coeffs = ()

    def test_equal_values_hash_equal(self):
        a = PiXPolynomial([Fraction(2, 4), PiPolynomial([0, 1]), 0])
        b = PiXPolynomial([PiPolynomial([Fraction(1, 2)]), PI])
        assert a == b and hash(a) == hash(b)
        assert a != PiPolynomial([Fraction(1, 2)]) and PiXPolynomial([1]) != 1

    def test_repr(self):
        p = PiXPolynomial([Fraction(-1, 2), PI, PiPolynomial([Fraction(1, 2), Fraction(1, 3)]), Fraction(-1, 6)])
        assert repr(p) == "-1/2 + 1*pi*x + (1/2 + 1/3*pi)*x^2 - 1/6*x^3"
        assert repr(PiXPolynomial()) == "0"


class TestPiXPolynomialEval:
    def test_root_by_construction(self):
        # (pi - x)/2 at x = pi
        p = PiXPolynomial([PI * Fraction(1, 2), Fraction(-1, 2)])
        assert abs(pipoly_evaluator(p)(math.pi)) < 5e-16
        # x = pi rounded: (x - pi)^2 is about 1.5e-32, within the 60 digits the terms carry
        sq = PiXPolynomial([PI * PI, PI * -2, 1])
        ctx = mpmath.MPContext()
        ctx.dps = 120
        assert pipoly_evaluator(sq)(math.pi) == float((ctx.mpf(math.pi) - ctx.pi) ** 2)

    def test_constant_term(self):
        p = PiXPolynomial([PI * Fraction(1, 2), Fraction(-1, 2)])
        assert pipoly_evaluator(p)(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_quadratic_constant_is_zeta2(self):
        p = PiXPolynomial([PI * PI * Fraction(1, 6), PI * Fraction(-1, 2), Fraction(1, 4)])
        assert pipoly_evaluator(p)(0.0) == pytest.approx(1.6449340668482264, abs=1e-14)

    def test_fraction_argument(self):
        p = PiXPolynomial([0, 1, 1])  # x + x^2
        assert pipoly_evaluator(p)(Fraction(1, 2)) == pytest.approx(0.75, abs=1e-15)

    def test_evaluator_matches_per_point_coefficients(self):
        # coefficients at pi once, then Horner per x: the same doubles as
        # evaluating every coefficient at pi again at every x
        p = PiXPolynomial(c * PI for c in bernoulli_polynomial(6).coeffs) + PiXPolynomial([PI * PI / 6, PI / -2])
        at = pipoly_evaluator(p)
        ctx = mpmath.MPContext()
        ctx.dps = 35
        for x in [0.0, 1e-9, 0.3, 1.0, math.pi, 2 * math.pi - 1e-3, -2.5, Fraction(1, 3)]:
            acc = ctx.mpf(0)
            xv = ctx.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else ctx.mpf(x)
            for c in reversed(p.coeffs):
                acc = acc * xv + pi_poly_mpf(c, +ctx.pi)
            assert at(x) == pipoly_evaluator(p)(x) == float(acc), x


    def test_evaluator_same_double_as_the_mpf_route(self):
        # 20,000 seeded x over the grid-mode ids with an rhs_poly, inside and
        # just beyond each default grid: the integer Horner step returns the
        # double of the mpf Horner step it replaced
        recs = [r for r in load_registry().values() if r.verify_mode != "exact" and r.rhs_poly is not None]
        assert len(recs) == 11
        rng = random.Random(12)
        per_id = -(-20_000 // len(recs))
        for rec in recs:
            at, oracle = pipoly_evaluator(rec.rhs_poly), pipoly_evaluator_mpf(rec.rhs_poly)
            a, b, _ = rec.default_grid
            for _ in range(per_id):
                x = rng.uniform(a - 0.1, b + 0.1)
                assert at(x) == oracle(x), (rec.id, x)

    def test_every_argument_type_is_taken_exactly(self):
        p = PiXPolynomial(c * PI for c in bernoulli_polynomial(6).coeffs) + PiXPolynomial([PI * PI / 6, PI / -2])
        at = pipoly_evaluator(p)
        for x in [0.0, -0.0, 1e-300, 0.3, 2.5, -7.0, math.pi, 2.0**60]:
            assert at(x) == at(Fraction(x)), x
        for k in [0, 1, -3, 10**20]:
            assert at(k) == at(float(k)) == at(Fraction(k)), k
        assert at(Fraction(1, 3)) == pipoly_evaluator_mpf(p, 80)(Fraction(1, 3))

    def test_non_finite_argument_is_nan(self):
        at = pipoly_evaluator(PiXPolynomial([PI, 1]))
        for x in [math.inf, -math.inf, math.nan]:
            assert math.isnan(at(x)), x

    def test_zero_polynomial(self):
        assert pipoly_evaluator(PiXPolynomial())(1.5) == 0.0


class TestTaylorGenerators:
    def test_zigzag_numbers(self):
        # sec x + tan x = sum A_n x^n/n! (OEIS A000111)
        assert registry._zigzag(13) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765]

    @pytest.mark.parametrize("name", sorted(TAYLOR_GENERATORS))
    def test_equal_the_bernoulli_euler_formulas(self, name):
        for terms in (1, 2, 3, 200):
            assert TAYLOR_GENERATORS[name](terms) == TAYLOR_BY_NUMBERS[name](terms), terms

    def test_cot_half_leading_term(self):
        p = cot_half_regular(4)
        assert p.coeff(1).as_rational() == Fraction(-1, 12)

    def test_cot_half_matches_closed_form(self):
        p = cot_half_regular(12)
        for x in (0.2, 0.7, 1.3):
            closed = math.sin(x) / (2 * (1 - math.cos(x))) - 1 / x
            assert pipoly_evaluator(p)(x) == pytest.approx(closed, abs=1e-10)

    def test_inv_one_minus_cos_is_derivative(self):
        # derivative of the regular cot series must equal the regular csc^2 series
        p = cot_half_regular(10)
        q = inv_one_minus_cos_regular(10)
        for j in range(1, p.degree + 1):
            assert p.coeff(j).as_rational() * j == q.coeff(j - 1).as_rational()

    def test_inv_one_minus_cos_matches_closed_form(self):
        p = inv_one_minus_cos_regular(12)
        for x in (0.2, 0.9):
            closed = -1 / (2 * (1 - math.cos(x))) + 1 / x ** 2
            assert pipoly_evaluator(p)(x) == pytest.approx(closed, abs=1e-10)

    def test_half_sec_matches_closed_form(self):
        # radius of convergence is pi/2, so x=1.0 needs the longer truncation
        p = half_sec_series(30)
        for x in (0.3, 1.0):
            assert pipoly_evaluator(p)(x) == pytest.approx(1 / (2 * math.cos(x)), abs=1e-9)

    def test_log_sec_tan_matches_closed_form(self):
        p = log_sec_plus_tan_half_series(30)
        for x in (0.3, 0.9):
            closed = 0.5 * math.log((1 + math.sin(x)) / math.cos(x))
            assert pipoly_evaluator(p)(x) == pytest.approx(closed, abs=1e-9)


class TestIntegerLValue:
    """`_nint_l_value` and `_pi_fixed` in integers against mpmath."""

    @staticmethod
    def _numbers_by_the_mpmath_route(n: int) -> tuple[Fraction, int]:
        den = exactnum._staudt_clausen_denominator(n)
        bern = nint_l_value_mpmath(2 * math.factorial(n) * den, n, 2, False)
        euler = nint_l_value_mpmath(2 ** (n + 2) * math.factorial(n), n + 1, 1, True)
        return Fraction((-1) ** (n // 2 + 1) * bern, den), (-1) ** (n // 2) * euler

    def test_numbers_equal_the_mpmath_route(self):
        # every even index from the end of the table to 200, then a stride to 1000
        ns = [*range(exactnum._TABLE_MAX + 2, 201, 2), *range(226, 999, 24), 998, 1000]
        for n in ns:
            assert (bernoulli_number(n), euler_number(n)) == self._numbers_by_the_mpmath_route(n), n

    def test_pi_fixed_within_one_unit(self):
        # floor(pi 2^b) for every b from one mpmath value at the largest b
        top = 12_000
        ctx = mpmath.MPContext()
        ctx.prec = top + 128
        pi_top = int(ctx.floor(ctx.pi * 2 ** (top + 64)))
        sizes = [*range(1, 300), *range(300, top, 97), 11_794, top]
        for b in sizes:
            assert abs(exactnum._pi_fixed(b) - (pi_top >> top + 64 - b)) <= 1, b

    def test_pi_blocks_shifted_down_within_one_unit(self):
        # `_nint_l_value` shifts pi down from the next block of 1,024 bits
        top = 8192
        ctx = mpmath.MPContext()
        ctx.prec = top + 128
        pi_top = int(ctx.floor(ctx.pi * 2 ** (top + 64)))
        for b in [*range(1, 200), *range(200, top + 1, 89), 1023, 1024, 1025, 7168, top]:
            blocks = -(-b // 1024)
            assert abs((exactnum._pi_block(blocks) >> 1024 * blocks - b) - (pi_top >> top + 64 - b)) <= 1, b

    def test_pi_blocks_to_index_1000(self, monkeypatch):
        # B_1000 and E_1000 need the most bits of any index `values` accepts,
        # so every B_n and E_n there takes pi from one of 8 blocks
        asked = []
        block = exactnum._pi_block
        monkeypatch.setattr(exactnum, "_pi_block", lambda blocks: asked.append(blocks) or block(blocks))
        bernoulli_number(1000)
        euler_number(1000)
        assert len(asked) == 2 and max(asked) <= 8
