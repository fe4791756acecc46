import cmath
import math
import random
from fractions import Fraction
from math import factorial

import mpmath
import numpy as np
import pytest

from opzeta import series as series_module
from opzeta.errors import (
    NotConverged,
    OutsideDomain,
)
from opzeta.exactnum import EvalResult, clausen_closed_form, pipoly_evaluator, special_value
from opzeta.registry import CLOSED_FORMS
from opzeta.series import (
    TrigSeries,
    _differences,
    _geometric_rational,
    abel_sums,
    geometric_abel,
    partial_sums_accelerated,
)
from oracles import (
    beta_partial_sum,
    exact_differences,
    partial_sum,
    partial_sum_accelerated_per_point,
    partial_sums_per_point_loops,
    series_reciprocal,
)

PI = math.pi


def polylog_reference(s, character, x):
    """sum chi(n) e^(inx) n^-s by mpmath polylog at 40 digits: Li_s(z), z = e^(ix),
    and for the beta character (Li_s(iz) - Li_s(-iz))/(2i)."""
    ctx = mpmath.MPContext()
    ctx.dps = 40
    z = ctx.expj(x)
    if character == "trivial":
        return ctx.polylog(s, z)
    return (ctx.polylog(s, 1j * z) - ctx.polylog(s, -1j * z)) / 2j


class TestPartialSum:
    """The raw truncation of `oracles.partial_sum`, the reference of
    `TestConvergentClosedFormAgreement`, at known values and its own checks."""

    def test_sin_at_pi_vanishes(self):
        value, bound = partial_sum("sin", 1, PI, 10_000)
        assert abs(value) <= bound
        assert abs(value) < 1e-9  # every term sin(n pi) = 0

    def test_sawtooth_at_half_pi(self):
        value, bound = partial_sum("sin", 1, PI / 2, 100_000)
        assert abs(value - PI / 4) <= bound

    def test_quadratic_series_at_zero(self):
        value, _ = partial_sum("cos", 2, 0.0, 1_000_000)
        assert abs(value - PI * PI / 6) <= 1e-6

    def test_divergent_rejected(self):
        for parity, s in (("sin", 0), ("cos", -1)):
            with pytest.raises(ValueError, match="raw truncation diverges"):
                partial_sum(parity, s, 1.0, 100)

    def test_endpoint_conditional(self):
        with pytest.raises(OutsideDomain):
            partial_sum("cos", 1, 0.0, 100)
        with pytest.raises(OutsideDomain):
            partial_sum("cos", 1, 2 * PI, 100)

    def test_beta_character_terms(self):
        # sum (-1)^k cos((2k+1)x)/(2k+1)^2 at x=0 is Catalan's constant
        value, bound = beta_partial_sum("cos", 2, 0.0, 200_000)
        assert abs(value - 0.915965594177219) <= max(bound, 1e-6)

    def test_tail_bound_shape_exponent1(self):
        _, bound = partial_sum("sin", 1, 0.5, 1000)
        assert bound == pytest.approx(1.0 / (1001 * abs(math.sin(0.25))))


class TestPartialSumAccelerated:
    """`partial_sums_accelerated` on one-point grids. The class is named for
    the one-point wrapper these tests once called; the name keeps their ids."""

    @pytest.mark.parametrize("x", [0.1, 0.9, 2.2, 3.1, 5.0])
    def test_sawtooth_everywhere(self, x):
        r = partial_sums_accelerated(TrigSeries("sin", 1), [x])[0]
        want = pipoly_evaluator(clausen_closed_form("sin", 1))(x) if x <= PI else (PI - x) / 2
        assert abs(r.value - want) < 1e-12
        assert abs(r.value - want) <= r.abs_error_estimate + 1e-12

    @pytest.mark.parametrize("x", [0.1, 1.7, 4.4])
    def test_quadratic_cosine(self, x):
        r = partial_sums_accelerated(TrigSeries("cos", 2), [x], tol=1e-10)[0]
        want = pipoly_evaluator(clausen_closed_form("cos", 1))(x)
        assert abs(r.value - want) < 1e-9

    def test_rejects_divergent(self):
        with pytest.raises(ValueError):
            partial_sums_accelerated(TrigSeries("sin", 0), [1.0])

    @pytest.mark.parametrize("exponent", range(1, 7))
    def test_bounds_are_honest_and_useful_at_small_x(self, exponent):
        # the closed form exists for sin at odd and cos at even exponents
        parity = "sin" if exponent % 2 else "cos"
        poly = clausen_closed_form(parity, (exponent + 1) // 2)
        rng = random.Random(1000 + exponent)
        xs = [1e-6, 1e-4, 1e-2, 2 * PI - 1e-3] + [rng.uniform(0.01, 2 * PI - 0.01) for _ in range(40)]
        for x in xs:
            if x == 1e-6 and exponent <= 2:
                # the tail remainder (2.5 and 2.5e-6) is above tol: an error, not noise
                with pytest.raises(NotConverged):
                    partial_sums_accelerated(TrigSeries(parity, exponent), [x])
                continue
            r = partial_sums_accelerated(TrigSeries(parity, exponent), [x])[0]
            assert abs(r.value - pipoly_evaluator(poly)(x)) <= r.abs_error_estimate, x
            want = polylog_reference(exponent, "trivial", x)
            assert abs(r.value - float(want.imag if parity == "sin" else want.real)) <= r.abs_error_estimate, x
        # the exponent-1 bound here used to be 1.8e12
        assert partial_sums_accelerated(TrigSeries(parity, exponent), [1e-4])[0].abs_error_estimate < 1e-3

    @pytest.mark.parametrize("parity", ["sin", "cos"])
    @pytest.mark.parametrize("exponent", [1, 2])
    @pytest.mark.parametrize("x", [1e-9, 1e-6, 1e-5])
    def test_tiny_x_raises_instead_of_returning_noise(self, x, exponent, parity):
        # n0 is capped at 4*10^5 there, so the tail cannot reach tol; at
        # x = 1.12e-9, (sin, 1) used to return 2232.1 for pi/2
        with pytest.raises(NotConverged, match="tail remainder"):
            partial_sums_accelerated(TrigSeries(parity, exponent), [x])

    @staticmethod
    def beta_reference(parity, s, x):
        # sum chi_4(n) e^(inx) n^-s = 2^-s e^(ix) Phi(-e^(2ix), s, 1/2): no shift involved
        ctx = mpmath.MPContext()
        ctx.dps = 40
        exact = ctx.mpf(2) ** -s * ctx.expj(x) * ctx.lerchphi(-ctx.expj(2 * ctx.mpf(x)), s, ctx.mpf(1) / 2)
        return float(exact.imag if parity == "sin" else exact.real)

    @pytest.mark.parametrize("parity", ["sin", "cos"])
    @pytest.mark.parametrize("s", range(1, 7))
    def test_beta_by_shift_against_lerchphi(self, parity, s):
        rng = random.Random(f"beta-{parity}-{s}")
        for _ in range(4):  # lerchphi takes about 0.2 s a point
            x = rng.uniform(-1.5, 1.5)
            r = partial_sums_accelerated(TrigSeries(parity, s, "beta"), [x])[0]
            assert r.method == "partial_sum"
            assert abs(r.value - self.beta_reference(parity, s, x)) <= r.abs_error_estimate, x
            raw, raw_bound = beta_partial_sum(parity, s, x, 200_000)
            assert abs(r.value - raw) <= r.abs_error_estimate + raw_bound, x

    @pytest.mark.parametrize("parity", ["sin", "cos"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_beta_bound_covers_the_shifted_argument(self, parity, s):
        # near cos x = 0 the shifted sum is steep, and x - pi/2 carries the
        # rounding of pi/2: about 3e-13 at (sin, 1) and 1e-4 from pi/2
        for x in (PI / 2 - 1e-3, PI / 2 - 1e-4, 1e-4 - PI / 2):
            r = partial_sums_accelerated(TrigSeries(parity, s, "beta"), [x])[0]
            assert abs(r.value - self.beta_reference(parity, s, x)) <= r.abs_error_estimate, x

    def test_beta_endpoint(self):
        for x in (PI / 2, -PI / 2, 3 * PI / 2):
            with pytest.raises(OutsideDomain):
                partial_sums_accelerated(TrigSeries("sin", 1, "beta"), [x])

    def test_beta_errors_name_the_callers_x(self):
        # the shifted points are the kernel's own business: its errors name the beta
        # condition and the x the caller passed, not x -/+ pi/2
        with pytest.raises(OutsideDomain) as info:
            partial_sums_accelerated(TrigSeries("sin", 1, "beta"), [0.5, PI / 2])
        assert str(info.value) == "cos x = 0 at x=1.5707963267948966"
        x = -PI / 2 + 1e-9  # x + pi/2 is tiny, so its capped head leaves the tail above tol
        with pytest.raises(NotConverged) as info:
            partial_sums_accelerated(TrigSeries("cos", 1, "beta"), [0.5, x])
        assert f"at x={x} with n0=400000 head terms" in str(info.value)


class TestPartialSumsAccelerated:
    """The grid kernel against mpmath and against the per-point route it
    replaced, which sums with exact differences: within their bounds, not bit
    for bit, since the kernel's differences are floats. Each point's arithmetic
    is its own, so a value may not depend on the grid around it."""

    @staticmethod
    def fields(r):
        return r.value, r.abs_error_estimate, r.method

    def assert_within_bounds(self, series, xs, tols=(1e-9,)):
        refs = [polylog_reference(series.exponent, series.character, x) for x in xs]
        for tol in tols:
            got = partial_sums_accelerated(series, xs, tol)
            reversed_grid = partial_sums_accelerated(series, xs[::-1], tol)[::-1]
            assert len(got) == len(xs)
            for x, ref, r, r_rev in zip(xs, refs, got, reversed_grid):
                want = float(ref.imag if series.parity == "sin" else ref.real)
                assert abs(r.value - want) <= r.abs_error_estimate, (x, tol)
                oracle = partial_sum_accelerated_per_point(series, x, tol)
                assert abs(r.value - oracle.value) <= r.abs_error_estimate + oracle.abs_error_estimate, (x, tol)
                assert r.abs_error_estimate <= 2 * oracle.abs_error_estimate, (x, tol)  # float differences cost little
                assert self.fields(r) == self.fields(r_rev) == self.fields(partial_sums_accelerated(series, [x], tol)[0]), (x, tol)

    @pytest.mark.parametrize("character", ["trivial", "beta"])
    @pytest.mark.parametrize("parity", ["sin", "cos"])
    @pytest.mark.parametrize("exponent", range(1, 7))
    def test_seeded_grid(self, exponent, parity, character):
        rng = random.Random(f"grid-{exponent}-{parity}-{character}")
        if character == "trivial":
            xs = [rng.uniform(1e-3, 2 * PI - 1e-3) for _ in range(30)]
            xs += [-xs[0], 2 * PI - xs[1], PI, 1e-2, -7.5]  # head lengths repeat
        else:
            xs = [rng.uniform(-1.5, 1.5) for _ in range(30)] + [-1.0, 1.0, 0.0, PI / 2 - 1e-3]
        self.assert_within_bounds(TrigSeries(parity, exponent, character), xs, (1e-9, 1e-13))

    def test_one_point_grid(self):
        for series in (TrigSeries("sin", 1), TrigSeries("cos", 4), TrigSeries("cos", 3, "beta")):
            for x in (0.3, 2.9, 5e-4):
                self.assert_within_bounds(series, [x])
        assert partial_sums_accelerated(TrigSeries("sin", 2), []) == []

    def test_heads_span_several_batches(self):
        # heads of about 6.4*10^4 and 1.3*10^5 terms (longer than a batch) among short ones
        xs = [1e-3, 2.0, 1.1e-3, 5e-4, 3.0, 1e-3, 0.9e-3, 4.0, 6.28]
        assert sum(math.ceil(64 / (2 * math.sin(x / 2))) for x in xs) > 4 * series_module._HEAD_BATCH
        for series in (TrigSeries("sin", 1), TrigSeries("cos", 2), TrigSeries("sin", 5)):
            self.assert_within_bounds(series, xs)

    @pytest.mark.parametrize(
        "series, bad",
        [
            (TrigSeries("cos", 1), 2 * PI),  # x = 0 mod 2*pi
            (TrigSeries("sin", 2), 1e-9),  # capped head: the tail cannot reach tol
            (TrigSeries("sin", 1, "beta"), PI / 2),  # x - pi/2 = 0
            (TrigSeries("cos", 1, "beta"), -PI / 2 + 1e-9),  # x + pi/2 tiny
        ],
    )
    def test_a_bad_point_fails_before_any_head(self, series, bad, monkeypatch):
        with pytest.raises((OutsideDomain, NotConverged)) as want:
            partial_sum_accelerated_per_point(series, bad)
        calls = []
        monkeypatch.setattr(series_module, "_heads", lambda *args: calls.append(args))
        with pytest.raises(type(want.value)) as got:
            partial_sums_accelerated(series, [0.2, 1.0, bad, 1.3])
        assert str(got.value) == str(want.value)
        assert calls == []

    def test_checks_run_in_order(self, monkeypatch):
        # every endpoint, then the head terms bound, then the tails: a grid fails on
        # the first check in that order, not at its first bad point
        calls = []
        monkeypatch.setattr(series_module, "_tails", lambda *args: calls.append(args))
        with pytest.raises(OutsideDomain):
            partial_sums_accelerated(TrigSeries("sin", 2), [1e-9, 0.0])
        with pytest.raises(ValueError, match="add up to 20400000 terms, above the bound 20000000"):
            partial_sums_accelerated(TrigSeries("sin", 2), [1e-9] * 51)
        with pytest.raises(ValueError, match="above the bound 20000000"):  # one shift of each point is capped
            partial_sums_accelerated(TrigSeries("cos", 1, "beta"), [PI / 2 + 1e-9] * 51)
        assert calls == []


class TestKernelBitIdentity:
    """The grid kernel against `oracles.partial_sums_per_point_loops`, its
    per-point loops before they became array passes: the same arithmetic, so
    every value and bound is the same double, and every error the same."""

    @staticmethod
    def outcome(route, series, xs, tol):
        try:
            return [(r.value.hex(), r.abs_error_estimate.hex(), r.method) for r in route(series, xs, tol)]
        except (OutsideDomain, NotConverged, ValueError) as exc:
            return type(exc), str(exc)

    def assert_identical(self, series, xs, tol):
        got = self.outcome(partial_sums_accelerated, series, xs, tol)
        assert got == self.outcome(partial_sums_per_point_loops, series, xs, tol), (series, tol)
        return got

    @staticmethod
    def grid_with_head_terms(total):
        """A grid whose heads add up to `total` terms: points with heads of
        4,000 terms, then one with the rest."""
        def point(n0):  # an x whose head is n0 = ceil(64/q) terms
            return 2 * math.asin(32 / (n0 - 0.5))

        xs = [point(4000)] * (total // 4000 - 1)
        return xs + [point(total - 4000 * len(xs))]

    @pytest.mark.parametrize("character", ["trivial", "beta"])
    @pytest.mark.parametrize("parity", ["sin", "cos"])
    @pytest.mark.parametrize("exponent", range(1, 8))
    def test_seeded_grids(self, exponent, parity, character):
        rng = random.Random(f"bits-{exponent}-{parity}-{character}")
        series, errors = TrigSeries(parity, exponent, character), 0
        for size in (1, 2, 3, 7, 20, 50, 100):
            if character == "trivial":
                xs = [rng.uniform(-7.0, 7.0) for _ in range(size)]
            else:
                xs = [rng.uniform(-1.5, 1.5) for _ in range(size)]
            if size == 20:  # a point near an endpoint, where n0 is capped or the tail fails
                xs[rng.randrange(size)] = rng.choice([1e-4, 2 * PI + 3e-4, 1e-9, 2 * PI]) + (PI / 2 if character == "beta" else 0.0)
            for tol in (1e-3, 1e-9, 1e-13):
                errors += isinstance(self.assert_identical(series, xs, tol), tuple)
        assert errors <= 3  # only the grid with a point near an endpoint may fail

    def test_heads_span_several_batches(self):
        xs = [1e-3, 2.0, 1.1e-3, 5e-4, 3.0, 1e-3, 0.9e-3, 4.0, 6.28]
        for series in (TrigSeries("sin", 1), TrigSeries("cos", 2), TrigSeries("sin", 5), TrigSeries("cos", 3, "beta")):
            for tol in (1e-3, 1e-9, 1e-13):
                self.assert_identical(series, xs, tol)

    @pytest.mark.parametrize("total", [series_module._HEAD_BATCH, series_module._HEAD_BATCH + 1])
    def test_heads_at_the_batch_size(self, total):
        xs = self.grid_with_head_terms(total)
        assert sum(math.ceil(64 / (2 * math.sin(x / 2))) for x in xs) == total
        for series in (TrigSeries("sin", 1), TrigSeries("cos", 4)):
            for grid in (xs, xs[::-1], [2.0, *xs]):
                assert isinstance(self.assert_identical(series, grid, 1e-9), list)


class TestDifferences:
    @staticmethod
    def exact(m, s, j):
        # Delta^j n^-s at m from the binomial sum in exact rationals
        return sum((-1) ** (j - i) * math.comb(j, i) * Fraction(1, (m + i) ** s) for i in range(j + 1))

    @pytest.mark.parametrize("m", [1, 7, 400_001])
    @pytest.mark.parametrize("s", range(1, 7))
    def test_correctly_rounded_forward_differences(self, m, s):
        # the oracle's exact integer recurrence, which the per-point route sums with
        for j, got in zip(range(13), exact_differences(m, s)):
            assert got == float(self.exact(m, s, j)), (j, got)

    @pytest.mark.parametrize("s", range(1, 7))
    def test_float_differences_within_their_error(self, s):
        # the kernel's recurrence, over an array of m: |Delta^j n^-s| to a relative error of
        # (s + 2j + 2)u, inside the (3j + 2s)u its docstring proves, at every level it can reach
        ms = [1, 7, 65, 400_001]
        levels = list(_differences(np.array(ms, dtype=np.float64), s))
        assert len(levels) == series_module._SBP_MAX_LEVELS
        for j, got in enumerate(levels):
            for m, value in zip(ms, got.tolist()):
                exact = abs(self.exact(m, s, j))
                assert abs(Fraction(value) - exact) <= (s + 2 * j + 2) * Fraction(2.0**-53) * exact, (m, j)


class TestAbelSumsHonestBound:
    """`abel_sums` against mpmath polylog at 40 digits: exponents 1 down to
    -14, both characters and parities, x down to 1e-3 from each singular
    point. The beta series is (Li_s(iz) - Li_s(-iz))/(2i), z = e^(ix)."""

    def test_error_within_bound(self):
        rng = random.Random(20261018)
        singular = {"trivial": (0.0, 2 * PI), "beta": (PI / 2, -PI / 2)}
        points = [  # where 1 - cos x and 1 + sin x cancel in the named closed forms
            (0, "trivial", 1e-3), (-1, "trivial", 1e-3), (1, "beta", 1e-3 - PI / 2),
            (1, "beta", 2.0),  # cos x < 0, past |x| < pi/2, where the series still converges
        ]
        for character, centres in singular.items():
            for s in range(1, -15, -1):
                for c in centres:
                    points += [(s, character, x) for x in (c + 1e-3, c - 1e-3)]
                    points.append((s, character, c + rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 0)))
        for s, character, x in points:
            want = polylog_reference(s, character, x)
            for parity, part in (("sin", want.imag), ("cos", want.real)):
                got = abel_sums(TrigSeries(parity, s, character), [x])[0]
                assert got.method == "abel_closed_form"
                assert abs(got.value - float(part)) <= got.abs_error_estimate, (parity, s, character, x)
        got = abel_sums(TrigSeries("sin", 1, "beta"), [2.0])[0]
        want = 0.5 * math.log((1 + math.sin(2.0)) / abs(math.cos(2.0)))
        assert abs(got.value - want) <= got.abs_error_estimate + 4e-16 * abs(want)


class TestBetaIsTheShiftedTrivialMean:
    def test_bit_for_bit(self):
        # the beta Abel sum is (F(e^(i(x + pi/2))) - F(e^(i(x - pi/2))))/(2i) from the trivial
        # means F, with no closed form of its own
        rng = random.Random(20261019)
        xs = [rng.uniform(-3.0, 3.0) for _ in range(20)]
        for s in range(1, -15, -1):
            for x in xs:
                plus, minus = (
                    complex(abel_sums(TrigSeries("cos", s), [y])[0].value,
                            abel_sums(TrigSeries("sin", s), [y])[0].value)
                    for y in (x + PI / 2, x - PI / 2)
                )
                want = (plus - minus) / 2j
                assert abel_sums(TrigSeries("sin", s, "beta"), [x])[0].value == want.imag, (s, x)
                assert abel_sums(TrigSeries("cos", s, "beta"), [x])[0].value == want.real, (s, x)

    @pytest.mark.parametrize("s", range(1, 5))
    def test_kernel_bit_for_bit(self, s):
        # the kernel's beta sum is the same combination of its trivial sums at x -/+ pi/2
        rng = random.Random(f"beta-kernel-{s}")
        xs = [rng.uniform(-1.4, 1.4) for _ in range(20)]
        for parity, other in (("sin", "cos"), ("cos", "sin")):
            minus = partial_sums_accelerated(TrigSeries(other, s), [x - PI / 2 for x in xs])
            plus = partial_sums_accelerated(TrigSeries(other, s), [x + PI / 2 for x in xs])
            got = partial_sums_accelerated(TrigSeries(parity, s, "beta"), xs)
            for x, m, p, r in zip(xs, minus, plus, got):
                want = (m.value - p.value) / 2 if parity == "sin" else (p.value - m.value) / 2
                assert r.value == want, (parity, x)


class TestGeometricAbel:
    def test_half_turn(self):
        assert geometric_abel(PI) == pytest.approx(-0.5 + 0j, abs=1e-14)

    def test_quarter_turn(self):
        assert geometric_abel(PI / 2) == pytest.approx(complex(-0.5, 0.5), abs=1e-14)

    def test_third_turn_imag_part(self):
        v = geometric_abel(2 * PI / 3)
        expect = math.sin(2 * PI / 3) / (2 * (1 - math.cos(2 * PI / 3)))
        assert v.imag == pytest.approx(expect, abs=1e-14)
        assert expect == pytest.approx(math.sqrt(3) / 6)

    def test_singular_endpoints(self):
        for x in (0.0, 2 * PI, 4 * PI):
            with pytest.raises(OutsideDomain):
                geometric_abel(x)

    def test_real_part_is_minus_half_everywhere(self):
        for x in [0.1 + 0.3 * k for k in range(20)]:
            assert geometric_abel(x).real == pytest.approx(-0.5, abs=1e-12)


class TestAbelValue:
    def test_sine_exponent0(self):
        r = abel_sums(TrigSeries("sin", 0), [PI / 2])[0]
        assert r.value == pytest.approx(0.5, abs=1e-14)
        assert r.method == "abel_closed_form"

    def test_beta_sine_vanishes(self):
        r = abel_sums(TrigSeries("sin", 0, "beta"), [1.0])[0]
        assert r.value == 0.0

    def test_cos_exponent_minus_one(self):
        r = abel_sums(TrigSeries("cos", -1), [PI])[0]
        assert r.value == pytest.approx(-0.25, abs=1e-14)

    def test_beta_cos_half_sec(self):
        r = abel_sums(TrigSeries("cos", 0, "beta"), [1.0])[0]
        assert r.value == pytest.approx(1 / (2 * math.cos(1.0)), abs=1e-14)

    def test_outside_domain(self):
        with pytest.raises(OutsideDomain):
            abel_sums(TrigSeries("sin", 1, "beta"), [PI / 2])
        with pytest.raises(OutsideDomain):
            abel_sums(TrigSeries("sin", 0), [0.0])
        with pytest.raises(OutsideDomain):
            abel_sums(TrigSeries("cos", 0, "beta"), [PI / 2])

    def test_fallback_extrapolates(self):
        # the Abel sum of sum cos(nx) is -1/2 wherever x != 0 mod 2*pi
        r = abel_sums(TrigSeries("cos", 0), [1.2])[0]
        assert r.method == "abel_closed_form"
        assert abs(r.value + 0.5) <= r.abs_error_estimate <= 1e-14

    def test_cos_exponent0_next_to_the_pole(self):
        # the Abel means of sum cos(nx) grow like 1/(1 - r) at x ~ 0, but at
        # r = 1 the factored 1 - z keeps -1/2 within a bound of 1e-7
        r = abel_sums(TrigSeries("cos", 0), [1e-7])[0]
        assert abs(r.value + 0.5) <= r.abs_error_estimate <= 1e-7

    def test_no_closed_form_names_the_tail_at_convergent_exponents(self):
        # exponent >= 2 converges, so its Abel sum is the sum: the kernel's job, not this
        # route's, and the route names it
        for series in (TrigSeries("cos", 2), TrigSeries("sin", 5, "beta")):
            with pytest.raises(ValueError, match="use partial_sums_accelerated"):
                abel_sums(series, [1.0])
        # the kernel's own error where the capped head leaves the tail above tol, which the
        # Abel route used to wrap
        with pytest.raises(NotConverged, match="tail remainder"):
            partial_sums_accelerated(TrigSeries("cos", 2), [1e-6])


class TestAbelSums:
    """The Abel route over a grid: every point checked first, one mean per
    grid, and each value the double its x gives alone."""

    @pytest.mark.parametrize("character", ["trivial", "beta"])
    @pytest.mark.parametrize("exponent", range(1, -7, -1))
    def test_each_value_is_its_point_alone(self, exponent, character):
        rng = random.Random(f"abel-grid-{exponent}-{character}")
        if character == "trivial":
            xs = [rng.uniform(1e-3, 2 * PI - 1e-3) for _ in range(30)] + [1e-7, -2.0, PI, 2 * PI - 1e-3]
        else:
            xs = [rng.uniform(-1.4, 1.4) for _ in range(30)] + [1e-3 - PI / 2, 0.0, 2.0, PI / 2 - 1e-7]
        bits = lambda r: (r.value.hex(), r.abs_error_estimate.hex(), r.method)  # noqa: E731
        for parity in ("sin", "cos"):
            series = TrigSeries(parity, exponent, character)
            got, reversed_grid = abel_sums(series, xs), abel_sums(series, xs[::-1])[::-1]
            assert len(got) == len(xs)
            for x, r, r_rev in zip(xs, got, reversed_grid):
                assert bits(r) == bits(r_rev) == bits(abel_sums(series, [x])[0]), x
        assert abel_sums(TrigSeries("sin", 0), []) == []

    @pytest.mark.parametrize(
        "series, first, second, zero",
        [
            (TrigSeries("sin", 0), 2 * PI, 0.0, "sin(x/2)"),
            (TrigSeries("cos", -3), 1e-10, -2 * PI, "sin(x/2)"),
            (TrigSeries("sin", 1, "beta"), PI / 2, -PI / 2, "cos x"),
            (TrigSeries("cos", 0, "beta"), -PI / 2 + 1e-10, 3 * PI / 2, "cos x"),
        ],
    )
    def test_first_singular_point_is_named_before_any_mean(self, series, first, second, zero, monkeypatch):
        calls = []
        monkeypatch.setattr(series_module, "_abel_means", lambda *args: calls.append(args))
        for bad, grid in ((first, [0.5, first, 1.0, second]), (second, [1.0, second, first, 0.5])):
            with pytest.raises(OutsideDomain) as info:
                abel_sums(series, grid)
            assert str(info.value) == f"x={bad} is a singular point ({zero} = 0) of the Abel sum of {tuple(series)}"
        assert calls == []

    def test_one_mean_per_grid(self, monkeypatch):
        # the rational function of the trivial mean is built once a grid, for either character
        calls = []
        rational = series_module._geometric_rational
        monkeypatch.setattr(series_module, "_geometric_rational", lambda s: calls.append(s) or rational(s))
        xs = [0.1 * k for k in range(1, 14)]
        abel_sums(TrigSeries("cos", -4), xs)
        abel_sums(TrigSeries("sin", -2, "beta"), xs)
        assert calls == [-4, -2]


class TestAbelExtrapolate:
    """`abel_sums` at sample points, and the kernel at the convergent exponents."""

    def test_spec_grid_sine(self):
        r = abel_sums(TrigSeries("sin", 0), [PI / 2])[0]
        assert abs(r.value - 0.5) < 1e-15

    def test_beta_cos_at_one(self):
        r = abel_sums(TrigSeries("cos", 0, "beta"), [1.0])[0]
        assert abs(r.value - 1 / (2 * math.cos(1.0))) < 1e-15

    def test_sin_at_pi_vanishes(self):
        r = abel_sums(TrigSeries("sin", 0), [PI])[0]
        assert abs(r.value) < 1e-15

    def test_method_field(self):
        assert abel_sums(TrigSeries("sin", 0), [2.0])[0].method == "abel_closed_form"

    @pytest.mark.parametrize("exponent", range(2, 7))
    def test_convergent_exponents_are_the_sum(self, exponent):
        # Abel's theorem: at exponent >= 2 the Abel sum is the accelerated sum, one call a grid
        parity = "sin" if exponent % 2 else "cos"
        poly = clausen_closed_form(parity, (exponent + 1) // 2)
        rng = random.Random(2000 + exponent)
        xs = [rng.uniform(0.05, 2 * PI - 0.05) for _ in range(20)]
        for x, r in zip(xs, partial_sums_accelerated(TrigSeries(parity, exponent), xs)):
            assert r.method == "partial_sum"
            assert abs(r.value - pipoly_evaluator(poly)(x)) <= r.abs_error_estimate, x


class TestRegistryExtrapolationAgreement:
    """Every registry closed form vs `abel_sums` at 20 random points."""

    FORMS = {
        ("sin", 0, "trivial"): CLOSED_FORMS["sin_over_one_minus_cos"],
        ("cos", -1, "trivial"): CLOSED_FORMS["neg_inv_one_minus_cos"],
        ("sin", 0, "beta"): lambda x: 0.0,  # beta_sin_s0's right side, rhs_poly = 0
        ("cos", 0, "beta"): CLOSED_FORMS["half_sec"],
        ("sin", 1, "beta"): CLOSED_FORMS["log_sec_plus_tan_half"],
    }

    @pytest.mark.parametrize("key", sorted(FORMS))
    def test_agreement(self, key):
        parity, exponent, character = key
        series = TrigSeries(parity, exponent, character)
        fn = self.FORMS[key]
        rng = random.Random(20260811)
        lo, hi = (-1.4, 1.4) if character == "beta" else (0.05, 2 * PI - 0.05)
        count = 0
        while count < 20:
            x = rng.uniform(lo, hi)
            if character == "beta" and abs(math.cos(x)) < 0.1:
                continue
            if character == "trivial" and abs(math.sin(x / 2)) < 0.05:
                continue
            count += 1
            a = abel_sums(series, [x])[0]
            assert abs(a.value - fn(x)) <= a.abs_error_estimate + 1e-15 * abs(fn(x))


class TestFourierSideSpecialValues:
    """zeta(-k) and beta(-k), k = 0..30, from the exact trivial Abel means of
    `_geometric_rational` alone: by power-series long division at z = 1, and
    at z = i for the beta character."""

    def test_zeta_is_the_constant_term_of_the_abel_mean(self):
        # sum n^k e^(nw) = P_k(e^w)/(1 - e^w)^(k+1) = k!/(-w)^(k+1) + sum_j zeta(-k-j) w^j/j!.
        # With 1 - e^w = -w S(w), S = sum_j w^j/(j+1)!, its w^0 coefficient is
        # (-1)^(k+1) [w^(k+1)] P_k(e^w) / S(w)^(k+1).
        n = 32
        s = [Fraction(1, factorial(j + 1)) for j in range(n)]
        s_pow = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for k in range(31):
            coeffs, p = _geometric_rational(-k)
            assert p == k + 1
            s_pow = [sum(s_pow[i] * s[j - i] for i in range(j + 1)) for j in range(n)]
            inv = series_reciprocal(s_pow, k + 2)
            # [w^j] P_k(e^w) = sum_i c_i i^j / j!
            num = [Fraction(sum(c * i**j for i, c in enumerate(coeffs)), factorial(j)) for j in range(k + 2)]
            constant = (-1) ** (k + 1) * sum(num[j] * inv[k + 1 - j] for j in range(k + 2))
            assert constant == special_value("zeta", Fraction(-k)).value, k

    def test_beta_is_the_abel_mean_at_one(self):
        # sum chi(n) n^k z^n = (F_k(iz) - F_k(-iz))/(2i), F_k = P_k/(1 - z)^(k+1), is regular
        # at z = 1; P_k has real coefficients, so there it is Im F_k(i) = Im P_k(i)/(1 - i)^(k+1)
        for k in range(31):
            coeffs, p = _geometric_rational(-k)
            num = [sum(c for i, c in enumerate(coeffs) if i % 4 == r) for r in range(4)]
            re, im = num[0] - num[2], num[1] - num[3]  # P_k(i)
            a, b = 1, 0  # (1 + i)^p, and 1/(1 - i) = (1 + i)/2
            for _ in range(p):
                a, b = a - b, a + b
            value = Fraction(re * b + im * a, 2**p)
            assert value == special_value("beta", Fraction(-k)).value, k


class TestDecompositionInvariants:
    def test_imaginary_part_is_sine_series(self):
        for x in [0.2 + 0.37 * k for k in range(16)]:
            g = geometric_abel(x)
            s = abel_sums(TrigSeries("sin", 0), [x])[0]
            assert g.imag == pytest.approx(float(s.value), abs=1e-12)
            assert g.real == pytest.approx(-0.5, abs=1e-12)

    def test_geometric_from_abel_values_matches_closed_form(self):
        # the complex left side of `verify`'s geometric mode
        for x in (0.3, 1.1, 2.7, 5.1):
            e = complex(abel_sums(TrigSeries("cos", 0), [x])[0].value, abel_sums(TrigSeries("sin", 0), [x])[0].value)
            assert abs(e - geometric_abel(x)) < 1e-14


class TestConvergentClosedFormAgreement:
    @pytest.mark.parametrize("m", [1, 2])
    def test_sine_series(self, m):
        poly = clausen_closed_form("sin", m)
        for k in range(20):
            x = 0.1 + (2 * PI - 0.2) * k / 19
            value, bound = partial_sum("sin", 2 * m - 1, x, 20_000)
            assert abs(value - pipoly_evaluator(poly)(x)) <= bound

    @pytest.mark.parametrize("m", [1, 2])
    def test_cosine_series(self, m):
        poly = clausen_closed_form("cos", m)
        for k in range(20):
            x = 0.1 + (2 * PI - 0.2) * k / 19
            value, bound = partial_sum("cos", 2 * m, x, 20_000)
            assert abs(value - pipoly_evaluator(poly)(x)) <= bound


class TestClosedFormsNearCancellation:
    """Right sides against mpmath where 1 - cos x (x ~ 0 mod 2*pi) or
    1 + sin x (x ~ -pi/2) cancels: name -> (the form in mpmath, points)."""

    EXACT = {
        "sin_over_one_minus_cos": (lambda c, x: c.sin(x) / (2 * (1 - c.cos(x))), (1e-3, 1e-6, 2 * PI - 1e-4)),
        "neg_inv_one_minus_cos": (lambda c, x: -1 / (2 * (1 - c.cos(x))), (1e-3, 1e-6, 2 * PI - 1e-4)),
        "log_sec_plus_tan_half": (lambda c, x: c.log((1 + c.sin(x)) / c.cos(x)) / 2, (1e-3 - PI / 2, 1e-6 - PI / 2)),
    }

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_relative_error_against_mpmath(self, name):
        exact, xs = self.EXACT[name]
        ctx = mpmath.MPContext()
        ctx.dps = 40
        for x in xs:
            want = exact(ctx, ctx.mpf(x))
            assert abs(CLOSED_FORMS[name](x) - want) <= 1e-15 * abs(want), x


class TestBetaSquareWaveDerivative:
    def test_derivative_consistency(self):
        # d/dx of the (sin,1,beta) closed form = the (cos,0,beta) closed form
        f = CLOSED_FORMS["log_sec_plus_tan_half"]
        g = CLOSED_FORMS["half_sec"]
        h = 1e-5
        for x in (0.1, 0.4, 0.8, 1.2, 1.45, -0.9):
            fd = (f(x + h) - f(x - h)) / (2 * h)
            assert abs(fd - g(x)) < 1e-6

    def test_arctan_form_equivalence(self):
        # (1/2) i [atan(e^(-ix)) - atan(e^(ix))] equals the logarithmic form
        f = CLOSED_FORMS["log_sec_plus_tan_half"]
        for x in (0.2, 0.7, 1.1, 1.5, -1.2):
            arctan_form = 0.5j * (cmath.atan(cmath.exp(-1j * x)) - cmath.atan(cmath.exp(1j * x)))
            assert abs(arctan_form.imag) < 1e-14
            assert arctan_form.real == pytest.approx(f(x), abs=1e-12)


class TestTrigSeriesValidation:
    def test_bad_parity(self):
        with pytest.raises(ValueError):
            TrigSeries("tan", 1)

    def test_bad_character(self):
        with pytest.raises(ValueError):
            TrigSeries("sin", 1, "legendre")

    def test_bad_exponent(self):
        with pytest.raises(ValueError):
            TrigSeries("sin", 1.5)

    def test_summed_value_fields(self):
        (v,) = partial_sums_accelerated(TrigSeries("sin", 1), [1.0])
        assert type(v) is EvalResult and v.method == "partial_sum" and v.abs_error_estimate >= 0
