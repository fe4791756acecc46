import cmath
import math
import random
import warnings
from fractions import Fraction
from math import factorial

import mpmath
import pytest

from opzeta.errors import PoleHit, PrecisionLoss
from opzeta.exactnum import (
    EvalResult,
    bernoulli_number,
    euler_number,
    special_value,
)
from opzeta.pipoly import PiPolynomial, PiXPolynomial, clausen_closed_form
from opzeta.specfun import (
    dirichlet_beta,
    recip_gamma,
    zeta_em,
)
from oracles import (
    euler_summed_alternating,
    functional_equation_residual,
    hankel_zeta,
    hurwitz_zeta,
    lerch_hankel,
    pi_poly_mpf,
)

PI = math.pi

# zeta(1/2) recorded before the build from the Euler-Maclaurin scratch oracle
ZETA_HALF = -1.4603545088095868
# eta(1/2) = sum (-1)^(n-1) n^(-1/2), frozen from the alternating oracle
ETA_HALF = 0.6048986434216304


def exact(kind: str, k: int):
    """special_value's exact value of kind(k)."""
    value, _, method = special_value(kind, Fraction(k))
    assert method == "exact", (kind, k)
    return value


class TestZetaEM:
    def test_at_two(self):
        r = zeta_em(2)
        assert abs(r.value - PI * PI / 6) <= 1e-12
        assert r.abs_error_estimate <= 1e-10

    def test_at_zero(self):
        assert zeta_em(0).value == pytest.approx(-0.5, abs=1e-13)

    def test_at_minus_one(self):
        # zeta(-n) = (-1)^n B_{n+1}/(n+1) with exact B_2 = 1/6
        expect = float(Fraction(-1) * bernoulli_number(2) / 2)
        assert zeta_em(-1).value == pytest.approx(expect, abs=1e-13)
        assert expect == pytest.approx(-1 / 12)

    def test_pole_raises(self):
        with pytest.raises(PoleHit):
            zeta_em(1)
        with pytest.raises(PoleHit):
            zeta_em(1 + 1e-14)

    def test_near_pole_still_evaluates(self):
        r = zeta_em(1 + 1e-6)
        assert abs(r.value) > 9e5  # ~ 1/(s-1)

    @pytest.mark.parametrize("s", [-10.5, -25, 0.25, 3.7, complex(0.5, 30), complex(-20, 40)])
    def test_error_estimates_in_validated_domain(self, s):
        r = zeta_em(s)
        # 1e-10 absolute wherever a double can express it; ulp-scale beyond
        assert r.abs_error_estimate <= max(1e-10, abs(r.value) * 1e-14)

    def test_complex_conjugate_symmetry(self):
        a = zeta_em(complex(0.5, 14.0)).value
        b = zeta_em(complex(0.5, -14.0)).value
        assert a == pytest.approx(b.conjugate(), abs=1e-12)


class TestZetaNegInt:
    def test_trivial_zeros(self):
        for n in (2, 4, 6, 8, 10):
            assert exact("zeta", -n) == 0

    def test_minus_one(self):
        assert exact("zeta", -1) == Fraction(-1, 12)

    def test_minus_three(self):
        # continuation formula with B_4 = -1/30, cross-checked numerically
        assert exact("zeta", -3) == Fraction(1, 120)
        assert abs(zeta_em(-3).value - 1 / 120) < 1e-10

    def test_matches_euler_maclaurin(self):
        for n in range(1, 16):
            assert abs(zeta_em(-n).value - float(exact("zeta", -n))) < 1e-10


class TestZetaEvenPiForm:
    def test_zeta2(self):
        assert exact("zeta", 2) == PiPolynomial.pi_power(Fraction(1, 6), 2)

    def test_zeta4(self):
        assert exact("zeta", 4) == PiPolynomial.pi_power(Fraction(1, 90), 4)

    def test_numeric_agreement(self):
        for n in (2, 4, 6, 8):
            v = float(pi_poly_mpf(exact("zeta", n), mpmath.mpf(PI)))
            assert v == pytest.approx(zeta_em(n).value.real, abs=1e-12)


class TestHurwitz:
    def test_reduces_to_zeta(self):
        assert hurwitz_zeta(2, 1).value == pytest.approx(PI * PI / 6, abs=1e-12)

    def test_linear_identity_at_zero(self):
        # zeta(0, a) = 1/2 - a
        for a in (0.25, 0.5, 0.75, 1.0):
            assert hurwitz_zeta(0, a).value == pytest.approx(0.5 - a, abs=1e-12)
        assert hurwitz_zeta(0, 0.5).value == pytest.approx(0.0, abs=1e-12)

    def test_half_argument_identity(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        for s in (2.0, 3.0, -1.5, 0.25):
            lhs = hurwitz_zeta(s, 0.5).value
            rhs = (2 ** s - 1) * zeta_em(s).value
            assert lhs == pytest.approx(rhs, abs=1e-11)
        assert hurwitz_zeta(2, 0.5).value == pytest.approx(PI * PI / 2, abs=1e-12)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(2, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(2, 1.5)

    def test_pole(self):
        with pytest.raises(PoleHit):
            hurwitz_zeta(1, 0.5)


class TestDirichletBeta:
    def test_odd_negative_zeros(self):
        for n in (1, 3, 5):
            assert abs(dirichlet_beta(-n).value) < 1e-11

    def test_even_negative_euler_values(self):
        for n in (2, 4, 6, 8):
            expect = euler_number(n) / 2
            assert dirichlet_beta(-n).value.real == pytest.approx(expect, abs=1e-9)

    def test_at_one_alternating_oracle(self):
        oracle = euler_summed_alternating(lambda k: 1.0 / (2 * k + 1))
        assert oracle == pytest.approx(PI / 4, abs=1e-12)
        assert dirichlet_beta(1).value == pytest.approx(oracle, abs=1e-12)

    def test_exact_value_tables(self):
        assert exact("beta", 0) == Fraction(1, 2)
        assert exact("beta", -2) == Fraction(-1, 2)
        assert exact("beta", -4) == Fraction(5, 2)
        assert exact("beta", -1) == 0
        assert exact("beta", 1) == PiPolynomial.pi_power(Fraction(1, 4), 1)
        assert exact("beta", 3) == PiPolynomial.pi_power(Fraction(1, 32), 3)

    def test_pi_form_numeric_agreement(self):
        for n in (1, 3, 5):
            v = float(pi_poly_mpf(exact("beta", n), mpmath.mpf(PI)))
            assert v == pytest.approx(dirichlet_beta(n).value.real, abs=1e-11)


class TestSpecialValue:
    @staticmethod
    def exact_formula(kind, k, numbers):
        """The closed form of kind(k), 'pole' at zeta(1), None where there is none,
        from B_n and E_n by routes other than exactnum's (`oracle_numbers`)."""
        B, E = numbers
        if kind == "zeta":
            if k == 1:
                return "pole"
            if k <= 0:  # zeta(-n) = (-1)^n B_(n+1)/(n+1); the oracle's B_1 is already -1/2
                return (-1) ** -k * B[1 - k] / (1 - k)
            if k % 2:
                return None
            return PiPolynomial.pi_power((-1) ** (k // 2 + 1) * B[k] * 2**k / (2 * factorial(k)), k)
        if kind == "beta":
            if k <= 0:  # beta(-n) = E_n/2
                return Fraction(E[-k], 2)
            if k % 2 == 0:
                return None
            m = (k - 1) // 2  # beta(2m+1) = (-1)^m E_2m pi^(2m+1) / (4^(m+1) (2m)!)
            return PiPolynomial.pi_power(Fraction((-1) ** m * E[2 * m], 4 ** (m + 1) * factorial(2 * m)), k)
        return Fraction(0) if k <= 0 else Fraction(1, factorial(k - 1))

    NUMERIC = {"zeta": (zeta_em, "euler_maclaurin"), "beta": (dirichlet_beta, "hurwitz_difference")}

    @pytest.mark.parametrize("kind", ["zeta", "beta", "recip_gamma"])
    def test_exact_formulas_at_every_integer(self, kind, oracle_numbers):
        # past index 82 on both sides, where B_n and E_n come from the L-value
        # sums and the positive side from the functional equation
        for k in range(-401, 402):
            want = self.exact_formula(kind, k, oracle_numbers)
            got = special_value(kind, Fraction(k))
            if want == "pole":
                assert got == (None, None, "pole")
            elif want is not None:
                assert got == (want, 0.0, "exact"), k
                assert type(got.value) is type(want), k
            else:  # odd zeta and even beta values >= 2: the numeric route
                f, method = self.NUMERIC[kind]
                r = f(float(k))
                assert got == (r.value, r.abs_error_estimate, method), k

    @pytest.mark.parametrize("kind", ["zeta", "beta", "recip_gamma"])
    def test_numeric_at_the_halves(self, kind):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PrecisionLoss)  # Re s < -25: best-effort values
            for k in range(-60, 60):
                h = Fraction(2 * k + 1, 2)
                value, err, method = special_value(kind, h)
                if kind == "recip_gamma":
                    v = recip_gamma(float(h)).value
                    assert (value, err, method) == (v, 1e-12 * max(1.0, abs(v)), "rgamma"), h
                else:
                    f, want_method = self.NUMERIC[kind]
                    r = f(float(h))
                    assert (value, err, method) == (r.value, r.abs_error_estimate, want_method), h

    def test_numeric_bound_holds_at_every_rational(self):
        # the argument is taken exactly: rounded to a double first, zeta and
        # beta near -22 erred by up to 18 times their bounds
        rng = random.Random(15)
        args = [Fraction(-221, 10), Fraction(-239, 10), Fraction(-231, 10), Fraction(-67, 3), Fraction(-157, 7)]
        args += [Fraction(rng.randrange(-24 * q, 12 * q), q) for q in rng.choices((3, 5, 7, 10), k=40)]
        ctx = mpmath.MPContext()
        ctx.dps = 50
        refs = {"zeta": ctx.zeta, "beta": lambda s: ctx.dirichlet(s, [0, 1, 0, -1]), "recip_gamma": ctx.rgamma}
        for a in (a for a in args if a.denominator != 1):
            for kind, ref in refs.items():
                value, err, method = special_value(kind, a)
                assert method not in ("exact", "pole")
                assert abs(ctx.mpc(value) - ref(ctx.mpf(a.numerator) / a.denominator)) <= err, (kind, a)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            special_value("gamma", Fraction(2))


class TestRecipGamma:
    def test_at_one(self):
        assert recip_gamma(1).value == pytest.approx(1.0, abs=1e-14)

    def test_annihilation_is_exact_zero(self):
        for k in range(0, 31):
            assert recip_gamma(-k).value == 0

    def test_at_half(self):
        # reflection oracle: Gamma(1/2) = sqrt(pi)
        assert recip_gamma(0.5).value == pytest.approx(1 / math.sqrt(PI), abs=1e-14)

    def test_against_stdlib_gamma(self):
        for s in (0.3, 1.7, 4.25, 9.5):
            assert recip_gamma(s).value == pytest.approx(1 / math.gamma(s), rel=1e-13)

    def test_accuracy_split(self):
        # absolute 1e-12 where the value is order one, relative 1e-12 beyond
        v = recip_gamma(-3.5).value
        expect = 1 / math.gamma(-3.5)
        assert abs(v - expect) <= max(1e-12, abs(expect) * 1e-12)
        v = recip_gamma(-20.5).value
        expect = 1 / math.gamma(-20.5)
        assert abs(v - expect) <= abs(expect) * 1e-12

    def test_complex_point(self):
        # |1/Gamma(conj s)| = |1/Gamma(s)| and conjugate symmetry
        v = recip_gamma(complex(2.0, 3.0)).value
        w = recip_gamma(complex(2.0, -3.0)).value
        assert v == pytest.approx(w.conjugate(), rel=1e-12)


class TestHankelZeta:
    def test_at_zero(self):
        r = hankel_zeta(0)
        assert abs(r.value - (-0.5)) <= 1e-8

    def test_at_half_prerecorded(self):
        r = hankel_zeta(0.5)
        assert abs(r.value - ZETA_HALF) <= 1e-8
        em = zeta_em(0.5)
        assert abs(r.value - em.value) <= 1e-8

    def test_at_minus_one(self):
        assert abs(hankel_zeta(-1).value - float(exact("zeta", -1))) <= 1e-8

    def test_contour_clipped(self):
        for rho in (2 * PI, 7.0):
            with pytest.raises(ValueError, match=r"must lie in \(0, 2\*pi\) to exclude the kernel poles"):
                hankel_zeta(0.5, rho=rho)

    def test_requires_re_below_one(self):
        with pytest.raises(ValueError):
            hankel_zeta(1.5)

    def test_rho_independence(self):
        a = hankel_zeta(0.3, rho=PI).value
        b = hankel_zeta(0.3, rho=1.5).value
        assert a == pytest.approx(b, abs=1e-10)

    @pytest.mark.parametrize(
        "s", [-3, -2, -1, 0, 0.5, complex(-0.5, 1.0), complex(-0.5, -1.0)]
    )
    def test_oracle_triangle(self, s):
        h = hankel_zeta(s)
        e = zeta_em(s)
        assert abs(h.value - e.value) <= h.abs_error_estimate + e.abs_error_estimate
        assert abs(h.value - e.value) <= 1e-7

    def test_integer_points_exact_within_1e8(self):
        assert abs(hankel_zeta(0).value + 0.5) <= 1e-8
        for n in (1, 2, 3):
            assert abs(hankel_zeta(-n).value - float(exact("zeta", -n))) <= 1e-8


class TestLerchHankel:
    def test_residue_at_s0_quarter_turn(self):
        r = lerch_hankel(0, PI / 2)
        assert r.value == pytest.approx(complex(-0.5, 0.5), abs=1e-10)

    def test_residue_at_s0_half_turn(self):
        assert lerch_hankel(0, PI).value == pytest.approx(-0.5 + 0j, abs=1e-10)

    def test_matches_geometric_closed_form(self):
        for x in (0.5, 2.0, 4.5):
            expect = 1 / (cmath.exp(-1j * x) - 1)
            assert lerch_hankel(0, x).value == pytest.approx(expect, abs=1e-9)

    def test_alternating_oracle_at_half(self):
        # sum (-1)^n n^(-1/2) = -eta(1/2), via the Euler-summed oracle
        oracle = euler_summed_alternating(lambda k: 1.0 / math.sqrt(k + 1))
        assert oracle == pytest.approx(ETA_HALF, abs=1e-10)
        r = lerch_hankel(0.5, PI)
        assert abs(r.value - (-oracle)) <= 1e-6

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            lerch_hankel(0, 0.0)
        with pytest.raises(ValueError):
            lerch_hankel(0, 2 * PI)
        with pytest.raises(ValueError):
            lerch_hankel(1.2, PI)
        with pytest.raises(ValueError, match="rho=0.6 would enclose the kernel pole at distance 0.5"):
            lerch_hankel(0, 0.5, rho=0.6)


class TestClausenClosedForm:
    def test_sin_m1_is_sawtooth(self):
        p = clausen_closed_form("sin", 1)
        assert p == PiXPolynomial([PiPolynomial.pi_power(Fraction(1, 2), 1), Fraction(-1, 2)])

    def test_cos_m1(self):
        p = clausen_closed_form("cos", 1)
        assert p == PiXPolynomial(
            [PiPolynomial.pi_power(Fraction(1, 6), 2), PiPolynomial.pi_power(Fraction(-1, 2), 1), Fraction(1, 4)]
        )

    def test_sin_m2(self):
        p = clausen_closed_form("sin", 2)
        assert p == PiXPolynomial(
            [
                PiPolynomial(),
                PiPolynomial.pi_power(Fraction(1, 6), 2),
                PiPolynomial.pi_power(Fraction(-1, 4), 1),
                Fraction(1, 12),
            ]
        )

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            clausen_closed_form("tan", 1)
        with pytest.raises(ValueError):
            clausen_closed_form("sin", 0)


class TestFunctionalEquation:
    @pytest.mark.parametrize("s", [-0.5, -1.5, 0.25, 2, 3, 4, 5, 2.5, 0.75])
    def test_residual_small(self, s):
        # integer s >= 2 is a pole of Gamma(1 - s); the mirrored form has none
        assert functional_equation_residual(s) <= 1e-8

    @pytest.mark.parametrize("s", [0, 1, 0.0, 1.0])
    def test_zeta_pole_raises(self, s):
        with pytest.raises(PoleHit):
            functional_equation_residual(s)


class TestAgainstMpmath:
    """Seeded samples over the validated domain (Re s in [-25, 12],
    |Im s| <= 50, half of them real); the claimed bound must cover the
    distance to mpmath at 60 digits at every point."""

    @staticmethod
    def _points(n=50):
        rng = random.Random(1810)
        pts = []
        for i in range(n):
            sigma = rng.uniform(-25.0, 12.0)
            pts.append(sigma if i % 2 == 0 else complex(sigma, rng.uniform(-50.0, 50.0)))
        return pts

    @pytest.mark.parametrize("kind", ["zeta", "beta"])
    def test_error_within_bound(self, kind):
        import mpmath

        ctx = mpmath.MPContext()
        ctx.dps = 60
        over = []
        for s in self._points():
            a = ctx.mpmathify(s)
            if kind == "zeta":
                r, want = zeta_em(s), ctx.zeta(a)
            else:  # beta(s) = 4^-s (zeta(s, 1/4) - zeta(s, 3/4))
                r, want = dirichlet_beta(s), ctx.power(4, -a) * (ctx.zeta(a, ctx.mpf(1) / 4) - ctx.zeta(a, ctx.mpf(3) / 4))
            err = abs(complex(r.value) - complex(want))
            if err > r.abs_error_estimate:
                over.append((s, err, r.abs_error_estimate))
        assert over == []

    @pytest.mark.parametrize("kind", ["zeta", "beta"])
    def test_error_within_bound_far_left(self, kind):
        # outside the validated domain (a PrecisionLoss warning) the bound must
        # still hold: the remainder bound after K terms is theorem 1 of
        # arXiv:1309.2877 with M = K; M = K + 1, the size of the first omitted
        # term, fell short by up to 4% near Re s = -74
        import mpmath

        ctx = mpmath.MPContext()
        ctx.dps = 60
        rng = random.Random(2877)
        over = []
        for s in [rng.uniform(-80.9, -25.0) for _ in range(60)] + [-74.033, -75.188, -74.572]:
            a = ctx.mpf(s)
            with pytest.warns(PrecisionLoss):
                if kind == "zeta":
                    r, want = zeta_em(s), ctx.zeta(a)
                else:
                    r, want = dirichlet_beta(s), ctx.power(4, -a) * (ctx.zeta(a, ctx.mpf(1) / 4) - ctx.zeta(a, ctx.mpf(3) / 4))
            err = abs(complex(r.value) - complex(want))
            if err > r.abs_error_estimate:
                over.append((s, err / r.abs_error_estimate))
        assert over == []

    @pytest.mark.parametrize("kind", ["zeta", "beta"])
    def test_error_within_bound_wide(self, kind):
        # 200 seeded points plus the corners of the domain: sigma = -25 and
        # 12, |tau| = 50, sigma within 1e-6 of -25, the Fraction arguments
        # 1/2 and -49/2, and for beta s = 1 +- 1e-12 (the expm1 branch)
        import mpmath

        ctx = mpmath.MPContext()
        ctx.dps = 60
        rng = random.Random(f"wide-{kind}")
        points = []
        for i in range(200):
            sigma = rng.uniform(-25.0, 12.0)
            points.append(sigma if i % 2 == 0 else complex(sigma, rng.uniform(-50.0, 50.0)))
        points += [-25.0, 12.0, complex(-25, 50), complex(-25, -50), complex(12, 50), complex(12, -50), 50j]
        points += [-25 + 1e-7, -25 + 1e-6, complex(-25 + 5e-7, 50), complex(-25 + 5e-7, -3.25)]
        points += [Fraction(1, 2), Fraction(-49, 2)]
        if kind == "beta":
            points += [1 + 1e-12, 1 - 1e-12, complex(1 + 1e-12, 1e-12)]
        over = []
        for s in points:
            a = ctx.mpf(s.numerator) / s.denominator if isinstance(s, Fraction) else ctx.mpmathify(s)
            if kind == "zeta":
                r, want = zeta_em(s), ctx.zeta(a)
            else:
                r, want = dirichlet_beta(s), ctx.power(4, -a) * (ctx.zeta(a, ctx.mpf(1) / 4) - ctx.zeta(a, ctx.mpf(3) / 4))
            err = abs(complex(r.value) - complex(want))
            if not err <= r.abs_error_estimate:
                over.append((s, err, r.abs_error_estimate))
        assert over == []

    @pytest.mark.parametrize("f", [zeta_em, dirichlet_beta])
    def test_fraction_and_float_agree(self, f):
        # a real s computes in mpf arithmetic whatever its Python type
        for q in (Fraction(1, 2), Fraction(-49, 2), Fraction(29, 4)):
            assert f(q) == f(float(q))
        assert f(3) == f(3.0)


class TestImportIsCheap:
    @staticmethod
    def _child(code: str) -> str:
        import os
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_no_bernoulli_number_at_import(self):
        # the exact table, the Euler-Maclaurin coefficients and the memo of
        # logarithms are built on first use; importing the package must
        # compute no Bernoulli or Euler number (a profile hook sees every call
        # into exactnum's generators) and no logarithm
        code = (
            "import sys\n"
            "calls = []\n"
            "names = {'bernoulli_number', 'euler_number', '_small_numbers', '_nint_l_value'}\n"
            "def hook(frame, event, arg):\n"
            "    code = frame.f_code\n"
            "    if event == 'call' and code.co_name in names and code.co_filename.endswith('exactnum.py'):\n"
            "        calls.append(code.co_name)\n"
            "sys.setprofile(hook)\n"
            "import opzeta, opzeta.specfun as s, opzeta.exactnum as e\n"
            "sys.setprofile(None)\n"
            "print(calls, e._small_numbers.cache_info().currsize, s._em_coefficients.cache_info().currsize,\n"
            "      s._ln.cache_info().currsize)"
        )
        assert self._child(code) == "[] 0 0 0"

    def test_cli_paths_without_numpy(self):
        # numpy is imported inside the two functions that use it; the import of
        # the CLI and its list, values, extract and verify --exact never load it
        code = (
            "import io, sys\n"
            "import opzeta.cli as cli\n"
            "seen = ['numpy' in sys.modules]\n"
            "for argv in (['list'], ['values', 'zeta', '4'], ['extract', 'eq17'], ['verify', 'eq17', '--exact']):\n"
            "    assert cli.main(argv, out=io.StringIO()) == 0, argv\n"
            "    seen.append('numpy' in sys.modules)\n"
            "print(seen)"
        )
        assert self._child(code) == "[False, False, False, False, False]"


class TestConcurrentUse:
    def test_numeric_kernels_under_threads(self):
        # each call computes at its own explicit precision; results must be
        # identical regardless of interleaving
        from concurrent.futures import ThreadPoolExecutor

        points = [2.0, 0.5, -1.0, -3.0, 0.25, -0.5] * 4
        expect = [zeta_em(s).value for s in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: zeta_em(s).value, points))
        assert got == expect
        with ThreadPoolExecutor(max_workers=8) as pool:
            betas = list(pool.map(lambda n: dirichlet_beta(n).value, [-2] * 16))
        assert all(abs(b - (-0.5)) < 1e-9 for b in betas)

    def test_precision_does_not_leak_between_threads(self):
        # zeta_em works at 25+ digits while recip_gamma works at 50; with one
        # process-global precision, each thread's setting leaks into the
        # other's arithmetic and outlives both
        import sys
        import threading

        points = [0.5, -3.5, 2.0, -12.25, 0.25, 7.5, -0.75, 3.0, complex(0.5, 14.0), complex(-2.0, 5.0), -20.5, 1.5]
        expect_z = [zeta_em(s) for s in points]
        expect_g = [recip_gamma(s).value for s in points]
        dps = mpmath.mp.dps
        got_z, got_g = [], []

        def loop_zeta():
            for _ in range(10):
                got_z.append([zeta_em(s) for s in points])

        def loop_gamma():
            for _ in range(120):
                got_g.append([recip_gamma(s).value for s in points])

        threads = [threading.Thread(target=f) for f in (loop_zeta, loop_zeta, loop_gamma, loop_gamma)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got_z) == 20 and len(got_g) == 240
        assert got_z == [expect_z] * 20
        assert got_g == [expect_g] * 240
        assert mpmath.mp.dps == dps


class TestPrecisionLossWarnings:
    def test_zeta_em_outside_validated_domain(self):
        from opzeta.errors import PrecisionLoss

        with pytest.warns(PrecisionLoss):
            r = zeta_em(-30.0)  # Re s below the validated -25
        assert r.value == r.value  # best-effort value still returned

    @pytest.mark.parametrize("fn, s", [(zeta_em, -30.0), (dirichlet_beta, complex(0.5, 80.0))])
    def test_warning_names_the_function_and_its_caller(self, fn, s):
        with pytest.warns(PrecisionLoss) as record:
            fn(s)
        (warning,) = record
        assert str(warning.message).startswith(f"{fn.__name__}: s=")
        assert warning.filename == __file__

    def test_dirichlet_beta_outside_validated_domain(self):
        from opzeta.errors import PrecisionLoss

        with pytest.warns(PrecisionLoss):
            dirichlet_beta(complex(0.5, 80.0))

    def test_lerch_near_contour_pole(self):
        from opzeta.errors import PrecisionLoss

        with pytest.warns(PrecisionLoss):
            r = lerch_hankel(0, 0.03)
        assert r.abs_error_estimate >= 1e-8

    @pytest.mark.parametrize("fn", [zeta_em, dirichlet_beta, lambda s: hurwitz_zeta(s, 0.5)])
    def test_no_finite_bound_raises(self, fn):
        # at Re s <= -81 no K <= 41 gives a finite remainder bound: raise, never
        # return a value with an infinite bound, and warn of no best-effort
        # value before the refusal
        from opzeta.errors import NotConverged, PrecisionLoss

        with pytest.warns(PrecisionLoss):
            r = fn(-80.5)
        assert math.isfinite(r.abs_error_estimate)
        for s in (-81.0, -100.5, complex(-200.0, 3.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NotConverged):
                    fn(s)


class TestIntegerCorrections:
    """`_em_sum` sums its Euler-Maclaurin corrections in integers at a fixed
    point; the mpf loop it replaced (`oracles.em_sum_mpf`) must give the same
    double and the same bound at every point."""

    _ROUTES = [
        ("zeta_em", lambda s: zeta_em(s)),
        ("dirichlet_beta", lambda s: dirichlet_beta(s)),
        ("hurwitz a=0.1", lambda s: hurwitz_zeta(s, 0.1)),
        ("hurwitz a=1/3", lambda s: hurwitz_zeta(s, 1 / 3)),
        ("hurwitz a=0.5", lambda s: hurwitz_zeta(s, 0.5)),
    ]

    @staticmethod
    def _calls():
        # each seeded point goes through one route in turn, so every route
        # sees 400 real and 40 complex points; the special points see all five
        rng = random.Random(2877_14)
        points = [rng.uniform(-25.0, 12.0) for _ in range(2000)]
        points += [complex(rng.uniform(-25.0, 12.0), rng.uniform(-50.0, 50.0)) for _ in range(200)]
        routes = TestIntegerCorrections._ROUTES
        calls = [(routes[i % len(routes)], s) for i, s in enumerate(points)]
        special = [Fraction(1, 3), Fraction(-49, 2), Fraction(29, 4), Fraction(-7, 3), 1 + 1e-10, 1 - 1e-10, 50j]
        calls += [(route, s) for s in special for route in routes]
        calls.append((routes[1], 1))
        return calls

    def test_same_double_and_bound_as_the_mpf_loop(self, monkeypatch):
        from oracles import em_sum_mpf_shifts

        from opzeta import specfun

        def results():
            return [(name, s, *astuple(f(s))) for (name, f), s in calls]

        def astuple(r):
            return r.value, r.abs_error_estimate

        calls = self._calls()
        integer = results()
        monkeypatch.setattr(specfun, "_em_sum", em_sum_mpf_shifts)
        mpf = results()
        assert [r for r, m in zip(integer, mpf) if r != m] == []

    def test_routes_under_threads(self):
        # the loop keeps its state in local integers and the head table in a
        # local list, and the memo of logarithms is emptied after the serial
        # run, so the threads race to fill it: 4 threads at once, with a short
        # switch interval, give each call its serial result
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from opzeta import specfun

        calls = [
            (zeta_em, -12.75), (dirichlet_beta, 0.3), (zeta_em, complex(0.5, 21.0)), (dirichlet_beta, complex(-3.25, 9.5)),
            (dirichlet_beta, -20.1), (zeta_em, 7.125), (dirichlet_beta, complex(2.0, -40.0)), (zeta_em, complex(-24.0, 3.0)),
            # decimal Fractions, as `values` passes them: each call builds its own table of m^-s
            (zeta_em, Fraction(-2469, 200)), (dirichlet_beta, Fraction(-2469, 200)),
            (dirichlet_beta, Fraction(1139, 100)), (zeta_em, Fraction(-17, 8)),
        ]
        serial = [f(s) for f, s in calls]
        specfun._ln.cache_clear()
        start = threading.Barrier(4)

        def run(offset):
            start.wait(timeout=60)
            return [f(s) for f, s in calls[offset:] + calls[:offset]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(run, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for offset, got in enumerate(threaded):
            assert got == serial[offset:] + serial[:offset]


class TestPowerTable:
    """`_power_table` gives the heads of zeta_em and dirichlet_beta as
    integers at 2^-wp, wp = prec + 8: one fixed-point exp per prime m (times a
    fixed-point cos and sin at a complex s), its logarithm from the memo
    `_ln`, and one product per composite."""

    @staticmethod
    def _tables(s, dps: int, top: int):
        # (power rule, the full table, the odd table, wp) of a call at s and dps
        from opzeta import specfun

        ratio, ar, prec, _ = specfun._call(s, dps)
        power, wp, real = specfun._power(ratio, prec, top), prec + specfun._GUARD, not ratio[1]
        full = specfun._power_table(power, wp, top, real=real)
        odd = specfun._power_table(power, wp, top, odd=True, real=real)
        return power, full, odd, wp

    @staticmethod
    def _worst(s, power, tables, wp: int, top: int) -> float:
        # the largest |entry - m^-s| / (log2(m) 2^(1-wp) max(1, |m^-s|)) over
        # every entry of `tables`, and |4^-s - 4^-s| / (2^-wp |4^-s|) for the
        # rule's 4^-s, m^-s from mpmath one power per term at wp + 64 bits
        from oracles import _mp_of

        from opzeta.specfun import _ratio

        ref = mpmath.MPContext()
        ref.prec = wp + 64
        neg = -_mp_of(ref, _ratio(s))
        worst = 0.0
        for re, im, _ in tables:
            for m in range(2, top + 1):
                if re[m] is None:
                    continue
                exact_pow = ref.mpf(m) ** neg
                got = ref.mpc(re[m], im[m] if im else 0) / ref.mpf(2) ** wp
                bound = math.log2(m) * 2.0 ** (1 - wp) * max(1.0, float(abs(exact_pow)))
                worst = max(worst, float(abs(got - exact_pow)) / bound)
        x, y, e = power(4)
        exact_pow = ref.mpf(4) ** neg
        worst = max(worst, float(abs(ref.mpc(ref.ldexp(x, e), ref.ldexp(y, e)) - exact_pow) / abs(exact_pow)) * 2.0**wp)
        return worst

    @pytest.mark.parametrize("s", [-25, Fraction(-1, 2), 12, complex(3, 50), complex(-24, 3)])
    def test_entries_within_the_stated_bound(self, s):
        # at the call's own dps, up to dirichlet_beta's 4N + 3, every entry is
        # within log2(m) 2^(1-wp) max(1, |m^-s|) of m^-s, odd m alone in the
        # odd table, and the rule's 4^-s within relative 2^-wp
        from opzeta import specfun

        sc = complex(s)
        n_cut, dps = specfun._em_params(sc.real, abs(sc.imag), stride=4)
        top = 4 * n_cut + 3
        power, full, odd, wp = self._tables(s, dps, top)
        assert odd[0][2::2] == [None] * (top // 2)
        assert self._worst(s, power, (full, odd), wp, top) <= 1.0

    # fractional (decimal, as `values` passes it, and a double), integer,
    # half-integer, 0 and complex s
    _CLASSES = [Fraction(-2469, 200), Fraction(1, 3), 7.3125 + 2**-30, -25, 12, Fraction(-49, 2), 0.5, 0,
                complex(0.5, 14.0), complex(-24.75, 50.0)]

    @pytest.mark.parametrize("s", _CLASSES)
    def test_entries_bit_identical_to_mpmath_powers(self, s):
        # every entry, the odd table's and the rule's 4^-s, at dps 25 and at
        # the largest dps of the validated domain, is within the stated bound
        # of m^-s from mpmath at wp + 64 bits (the tables hold no mpmath
        # number since their powers became fixed-point exps); with the memo
        # of logarithms empty and then warm, the tables are the same integers
        from opzeta import specfun

        n_cut, max_dps = specfun._em_params(-25.0, 50.0, stride=4)
        top = 4 * n_cut + 3
        for dps in (25, max_dps):
            specfun._ln.cache_clear()
            power, *cold, wp = self._tables(s, dps, top)
            _, *warm, _ = self._tables(s, dps, top)
            assert cold == warm, dps
            assert cold[0][0][1] == 1 << wp
            assert self._worst(s, power, cold, wp, top) <= 1.0, dps

    def test_same_doubles_as_mpmath_logarithms(self):
        # zeta_em and dirichlet_beta give, by float.hex of value and bound,
        # what they give with mpmath's power per prime and 4^-s (ctx.mpf(m)
        # ** -s, `oracles.powers_pow`) in mpmath's table of m^-s: at seeded
        # decimal and double s in the validated domain, every half-integer and
        # integer in [-25, 11.5], 0 and complex s
        from oracles import dirichlet_beta_context, powers_pow, zeta_em_context

        from opzeta import specfun

        rng = random.Random(26)
        points = [Fraction(rng.randrange(-25000, 12001), 1000) for _ in range(150)]
        points += [rng.uniform(-25.0, 12.0) for _ in range(50)]
        points += [Fraction(k, 2) for k in range(-50, 24) if k != 2] + [0, 0.0]
        points += [complex(rng.uniform(-25.0, 12.0), rng.uniform(-50.0, 50.0)) for _ in range(30)]

        def results(fs):
            return [
                (s, complex(r.value).real.hex(), complex(r.value).imag.hex(), r.abs_error_estimate.hex())
                for s in points
                for f in fs
                for r in (f(s),)
            ]

        specfun._ln.cache_clear()
        memo = results([zeta_em, dirichlet_beta])
        mpmath_table = results([lambda s: zeta_em_context(s, powers=powers_pow),
                                lambda s: dirichlet_beta_context(s, powers=powers_pow)])
        assert [r for r, m in zip(memo, mpmath_table) if r != m] == []

    def test_memo_is_mpmath_log(self):
        # _ln(a, b, prec) holds mpmath's log of the mpf a/b at prec bits as an
        # integer at 2^-(prec + 16), exactly that raw value, when computed and
        # when read back: for the powers' log m (b = 1, m up to beyond beta's
        # 4N + 3 at complex s) and beta's log((4N+3)/(4N+1))
        from mpmath.libmp import from_man_exp
        from oracles import ln_mpmath

        from opzeta import specfun

        keys = [(m, 1, prec) for m in (2, 3, 4, 89, 97, 401, 403) for prec in (93, 102, 259, 332)]
        keys += [(4 * n + 3, 4 * n + 1, prec) for n in (10, 23, 100) for prec in (83, 92, 249, 322)]
        specfun._ln.cache_clear()
        cold = [specfun._ln(*k) for k in keys]
        assert cold == [specfun._ln(*k) for k in keys]
        assert [from_man_exp(v, -k[2] - 16) for v, k in zip(cold, keys)] == [ln_mpmath(*k) for k in keys]

    @pytest.mark.parametrize(
        "fn, s, n_cut, powers",
        [
            (zeta_em, Fraction(1, 3), 10, 5),  # primes <= 11
            (zeta_em, -25, 23, 9),  # primes <= 24
            (dirichlet_beta, Fraction(1, 3), 10, 14),  # odd primes <= 43, and 4^-s
            (dirichlet_beta, -25, 23, 24),  # odd primes <= 95, and 4^-s
        ],
    )
    def test_powers_per_call(self, monkeypatch, fn, s, n_cut, powers):
        # one power per prime (and beta one more for 4^-s), each a
        # fixed-point exp at a fractional s and the exact m^n, no exp, at an
        # integer s <= 0, and at most one log per prime and precision, beta's
        # pole log((4N+3)/(4N+1)) aside: a second call takes every log from
        # the memo. Beta's pole term, its expm1((1-s) log((4N+3)/(4N+1))), is
        # mpmath's exp, not a fixed-point one
        from mpmath.libmp import libelefun

        from opzeta import specfun

        assert specfun._em_params(complex(s).real, 0.0)[0] == n_cut
        calls, exp_fixed = [0], libelefun.exp_fixed

        def counted(*args):
            calls[0] += 1
            return exp_fixed(*args)

        monkeypatch.setattr(libelefun, "exp_fixed", counted)
        specfun._ln.cache_clear()
        first = fn(s)
        assert calls == [powers * (s != int(s))]
        logs = powers + (fn is dirichlet_beta)
        assert specfun._ln.cache_info().misses == specfun._ln.cache_info().currsize == logs
        assert fn(s) == first
        assert specfun._ln.cache_info().misses == logs


class TestKernelBitIdentity:
    """The kernels on raw mpmath values at an explicit precision give, bit for
    bit, what they gave on mpmath numbers in a per-thread context
    (`oracles.zeta_em_context`, `dirichlet_beta_context` and
    `recip_gamma_context`): the same raw value at the working precision
    before the rounding to a double, the same value and bound by float.hex,
    or the same error type and message, with the same warnings."""

    @staticmethod
    def _points() -> list:
        # seeded decimals and doubles of the validated real range, every
        # integer and half-integer in [-25, 11.5], 0 as int, float and
        # Fraction, both sides of the pole, two points below the validated
        # domain (PrecisionLoss) and complex s with |Im s| <= 50
        rng = random.Random(1309_2877)
        points = [Fraction(rng.randrange(-25000, 12001), 1000) for _ in range(1500)]
        points += [rng.uniform(-25.0, 12.0) for _ in range(300)]
        points += [Fraction(k, 2) for k in range(-50, 24)]
        points += [0, 0.0, Fraction(0), 1 + 1e-10, 1 - 1e-10, -60.5, -80.5]
        return points + [complex(rng.uniform(-25.0, 12.0), rng.uniform(-50.0, 50.0)) for _ in range(100)]

    @staticmethod
    def _outcome(seen: list, f, *args):
        seen.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                r = f(*args)
            except Exception as e:  # compared by type and message
                out = (type(e).__name__, str(e))
            else:
                assert isinstance(r, EvalResult)
                if isinstance(r.value, complex):  # a numeric route's record
                    out = (r.method, r.value.real.hex(), r.value.imag.hex(), r.abs_error_estimate.hex())
                else:  # an exact value or the pole: repr keeps every digit
                    out = repr(r)
        return out, tuple(seen), [(w.category.__name__, str(w.message)) for w in caught]

    @staticmethod
    def _watch_rounding(monkeypatch, seen: list) -> None:
        # each kernel rounds its one raw value to a double through its
        # arithmetic's `complex`: record the raw value there
        from opzeta import specfun

        arith = specfun._arith

        def watched(real):
            ar = arith(real)
            return ar._replace(complex=lambda x, rnd: (seen.append(x), ar.complex(x, rnd))[1])

        monkeypatch.setattr(specfun, "_arith", watched)

    @pytest.mark.parametrize("name", ["zeta_em", "dirichlet_beta", "recip_gamma"])
    def test_same_values_as_the_context_kernels(self, monkeypatch, name):
        import oracles

        from opzeta import specfun

        raw, context, seen, points = getattr(specfun, name), getattr(oracles, f"{name}_context"), [], self._points()
        want = [self._outcome(seen, context, s, seen) for s in points]
        self._watch_rounding(monkeypatch, seen)
        got = [self._outcome(seen, raw, s) for s in points]
        assert [(s, g, w) for s, g, w in zip(points, got, want) if g != w] == []
        assert sum(len(raws) for _, raws, _ in got) > len(points) - 40  # every numeric call was seen
        if name != "recip_gamma":
            warned = {w for _, _, ws in got for w in ws}
            assert ("PrecisionLoss", f"{name}: s=(-80.5+0j) outside the validated domain (Re s >= -25.0, "
                    "|Im s| <= 50.0); returning best-effort value") in warned

    @pytest.mark.parametrize("name", ["zeta_em", "dirichlet_beta"])
    def test_same_doubles_as_the_mpmath_table(self, name):
        # the context kernels with the table of mpmath numbers the kernels
        # read before their table ran in integers (`oracles.power_table_context`,
        # one mpmath power per prime) give, at every point, the same value and
        # bound by float.hex, the same error and the same warnings as the
        # integer table
        import oracles

        from opzeta import specfun

        raw, context, seen, points = getattr(specfun, name), getattr(oracles, f"{name}_context"), [], self._points()
        want = [self._outcome(seen, lambda s: context(s, powers=oracles.powers_context), s) for s in points]
        got = [self._outcome(seen, raw, s) for s in points]
        assert [(s, g, w) for s, g, w in zip(points, got, want) if g[::2] != w[::2]] == []

    def test_same_special_values(self, monkeypatch):
        # the route table's records, at every real point as the exact argument
        import oracles

        from opzeta import specfun

        args = [Fraction(s) for s in self._points() if not isinstance(s, complex)]
        calls = [(kind, a) for a in args for kind in ("zeta", "beta", "recip_gamma")]
        seen = []
        with monkeypatch.context() as patch:
            for name in ("zeta_em", "dirichlet_beta", "recip_gamma"):
                context = getattr(oracles, f"{name}_context")
                patch.setattr(specfun, name, lambda s, context=context: context(s, seen))
            want = [self._outcome(seen, special_value, *call) for call in calls]
        self._watch_rounding(monkeypatch, seen)
        got = [self._outcome(seen, special_value, *call) for call in calls]
        assert [(c, g, w) for c, g, w in zip(calls, got, want) if g != w] == []
        assert sum(out[0] in ("euler_maclaurin", "hurwitz_difference", "rgamma") for out, _, _ in got) > 5000
