"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import io
import math
import time
from fractions import Fraction
from math import comb, factorial

from opzeta.cli import main
from opzeta.divmatrix import build_matrix, consistency_check
from opzeta.errors import PoleHit
from opzeta.exactnum import (
    PiPolynomial,
    PiXPolynomial,
    euler_number,
)
from opzeta.operators import (
    DilationShift,
    Expression,
    SingularTerm,
    apply_operator,
    extract_special_values,
    taylor_flow,
)
from opzeta.registry import cot_half_regular, get_identity, inv_one_minus_cos_regular, load_registry
from opzeta.series import TrigSeries, abel_sums, geometric_abel
from opzeta.exactnum import clausen_closed_form, special_value
from opzeta.specfun import (
    dirichlet_beta,
    zeta_em,
)
from oracles import bernoulli_akiyama_tanigawa, functional_equation_residual, hankel_zeta

PI = math.pi


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def run_cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    return main(list(argv), out=buf), buf.getvalue()


def test_registry_default_profiles():
    # every registry identity ships a default verification profile that passes
    failed = [ident for ident in load_registry() if run_cli("verify", ident)[0] != 0]
    print(f"registry profiles: {'PASS' if not failed else 'FAIL'} - all default verification profiles green {failed or ''}")
    assert not failed


def test_criterion_1_sawtooth_partial_sums():
    t0 = time.monotonic()
    code, out = run_cli("verify", "eq2", "--grid", "0.1:3.14159:50", "--tol", "1e-6")
    elapsed = time.monotonic() - t0
    ok = code == 0 and elapsed < 5.0
    report(1, ok, f"verify eq2, 50 points in [0.1, pi], tol 1e-6, {elapsed:.2f}s (budget 5s)")


def test_criterion_2_abel_extrapolation_and_real_part():
    t0 = time.monotonic()
    code, _ = run_cli("verify", "eq1", "--grid", "0.1:3.14159:50", "--tol", "1e-6")
    series = TrigSeries("sin", 0)
    worst_dev = 0.0
    worst_re = 0.0
    for k in range(50):
        x = 0.1 + (PI - 0.1) * k / 49
        lhs = abel_sums(series, [x])[0].value
        rhs = math.sin(x) / (2 * (1 - math.cos(x)))
        worst_dev = max(worst_dev, abs(lhs - rhs))
        worst_re = max(worst_re, abs(geometric_abel(x).real + 0.5))
    elapsed = time.monotonic() - t0
    ok = code == 0 and worst_dev <= 1e-6 and worst_re <= 1e-8
    report(2, ok, f"eq1 Abel-sum deviation {worst_dev:.2e} <= 1e-6, Re-part deviation {worst_re:.2e} <= 1e-8 ({elapsed:.2f}s)")


def test_criterion_3_quadratic_cubic_and_regeneration():
    code18, _ = run_cli("verify", "eq18", "--grid", "0.1:6.18:50", "--tol", "1e-6")
    code19, _ = run_cli("verify", "eq19", "--grid", "0.1:6.18:50", "--tol", "1e-6")

    # closed forms must regenerate exactly from the stated prefactors and an
    # independently built Bernoulli polynomial (Akiyama-Tanigawa + binomial sum)
    bern = bernoulli_akiyama_tanigawa(10)
    bern[1] = Fraction(-1, 2)

    def rescaled(parity: str, m: int) -> PiXPolynomial:
        order = 2 * m if parity == "cos" else 2 * m - 1
        sign = Fraction((-1) ** (m - 1)) if parity == "cos" else Fraction((-1) ** m)
        poly_coeffs = [Fraction(0)] * (order + 1)
        for k in range(order + 1):
            poly_coeffs[order - k] += comb(order, k) * bern[k]
        out = []
        for j in range(order + 1):
            q = sign * poly_coeffs[j] * (2 ** (order - j)) / (2 * factorial(order))
            out.append(PiPolynomial.pi_power(q, order - j))
        return PiXPolynomial(out)

    regen_ok = all(
        clausen_closed_form(parity, m) == rescaled(parity, m)
        for parity in ("sin", "cos")
        for m in range(1, 6)
    )
    ok = code18 == 0 and code19 == 0 and regen_ok
    report(3, ok, "eq18/eq19 series deviation <= 1e-6 on (0.1, 2*pi-0.1); closed forms regenerate exactly for m <= 5")


def test_criterion_4_trivial_zero_extraction():
    code, _ = run_cli("extract", "eq17")
    vals = {v.argument: v for v in extract_special_values(get_identity("eq17"), 6)}
    exact_ok = vals[0].value == Fraction(-1, 2) and vals[0].matched
    for k in range(1, 6):
        v = vals[-2 * k]
        exact_ok = exact_ok and v.value == 0 and v.matched and special_value("zeta", Fraction(-2 * k)).value == 0
    ok = code == 0 and exact_ok
    report(4, ok, "extract eq17: zeta(0) = -1/2 and zeta(-2k) = 0 for k=1..5, exact, matched against special_value")


def test_criterion_5_anomaly_ledger():
    reg = load_registry()
    expected = {
        "eq2": PiXPolynomial([PiPolynomial.pi_power(Fraction(1, 2), 1)]),
        "eq18": PiXPolynomial.monomial(1, PiPolynomial.pi_power(Fraction(-1, 2), 1)),
        "eq19": PiXPolynomial.monomial(2, PiPolynomial.pi_power(Fraction(-1, 4), 1)),
    }
    ok = True
    for ident, want in expected.items():
        rec = reg[ident]
        flow = taylor_flow(rec.op, rec.trig, 12)
        ok = ok and flow.branch == Expression(want) and (flow.poly + flow.branch.poly == rec.rhs_poly)
    report(5, ok, "branch terms are exactly pi/2, -pi x/2, -pi x^2/4; flow + branch rebuilds each closed form to K=12")


def test_criterion_6_singularity_removal():
    flow_sin = taylor_flow(DilationShift("zeta", Fraction(0)), "sin", 10)
    flow_cos = taylor_flow(DilationShift("zeta", Fraction(-1)), "cos", 10)
    ok = (
        flow_sin.poly == cot_half_regular(10)
        and flow_sin.branch == Expression(singular_terms=(SingularTerm(PiPolynomial([1]), -1),))
        and flow_cos.poly == inv_one_minus_cos_regular(10)
        and flow_cos.branch == Expression(singular_terms=(SingularTerm(PiPolynomial([-1]), -2),))
    )
    report(6, ok, "shift-0 sine flow equals the regrouped sin x/(2(1-cos x)) - 1/x expansion exactly (K=10), its branch 1/x;"
                  " shift -1 cosine analogue likewise, its branch -1/x^2")


def test_criterion_7_beta_values():
    code_sin, _ = run_cli("extract", "beta_sin_s0")
    code_cos, _ = run_cli("extract", "beta_cos_s0")
    sin_vals = {v.argument: v for v in extract_special_values(get_identity("beta_sin_s0"), 3)}
    cos_vals = {v.argument: v for v in extract_special_values(get_identity("beta_cos_s0"), 3)}
    exact_ok = (
        all(sin_vals[-n].value == 0 and sin_vals[-n].matched for n in (1, 3, 5))
        and cos_vals[-2].value == Fraction(-1, 2)
        and cos_vals[-4].value == Fraction(5, 2)
        and euler_number(2) == -1
        and euler_number(4) == 5
    )
    numeric_ok = all(
        abs(dirichlet_beta(-n).value - euler_number(n) / 2) <= 1e-9 for n in (1, 2, 3, 4, 5)
    )
    ok = code_sin == 0 and code_cos == 0 and exact_ok and numeric_ok
    report(7, ok, "beta(-odd) = 0 and beta(-2) = -1/2, beta(-4) = 5/2 exact; numeric beta agrees within 1e-9")


def test_criterion_8_oracle_triangle():
    t0 = time.monotonic()
    ok = True
    for s in (-3, -2, -1, 0, 0.5):
        h = hankel_zeta(s)
        e = zeta_em(s)
        ok = ok and abs(h.value - e.value) <= 1e-7
    exact_pts = {0: Fraction(-1, 2), -1: Fraction(-1, 12), -2: Fraction(0), -3: Fraction(1, 120)}
    for s, want in exact_pts.items():
        ok = ok and abs(hankel_zeta(s).value - float(want)) <= 1e-8
        ok = ok and abs(zeta_em(s).value - float(want)) <= 1e-10
    residual = max(functional_equation_residual(s) for s in (-0.5, -1.5, 0.25))
    elapsed = time.monotonic() - t0
    ok = ok and residual <= 1e-8 and elapsed < 10.0
    report(8, ok, f"|hankel - euler_maclaurin| <= 1e-7 on the probe set, exact values matched, functional-equation residual {residual:.2e} <= 1e-8, {elapsed:.2f}s (budget 10s)")


def test_criterion_9_matrix_and_pole_witness():
    rep = consistency_check(1, 32)
    quad_ok = rep.max_abs_deviation < 1e-8
    triplets = "".join(build_matrix(64).triplet_rows()).splitlines()
    pattern_ok = triplets == [
        f"{m} {n} {Fraction(n, m).numerator} {Fraction(n, m).denominator}"
        for m in range(1, 65) for n in range(1, 65) if m % n == 0
    ]
    try:
        apply_operator(DilationShift("zeta", Fraction(1)), Expression.from_poly(PiXPolynomial([1])))
        pole_ok = False
    except PoleHit:
        pole_ok = True
    ok = quad_ok and pattern_ok and pole_ok
    report(9, ok, f"column-1 sawtooth coefficient deviation {rep.max_abs_deviation:.2e} <= 1e-8; divisibility pattern exact to 64; constants raise PoleHit")
