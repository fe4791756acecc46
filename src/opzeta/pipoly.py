"""Polynomials over Q and Q[pi]: the exact forms of the operator engine, the
registry's right sides and the closed forms of the trigonometric series.

`PiPolynomial` (in pi over Q) and `PiXPolynomial` (in x over Q[pi]) share
one private base, `_Poly`: the trimmed, immutable coefficient tuple, `+`,
`-`, equality, hashing and printing. All operations are pure.
`pipoly_evaluator` (coefficients at pi once, then Horner per x) and
`float(PiPolynomial)` compute in integers, with pi from `exactnum.pi_bits`,
and round the exact rational value once to a double by one int/int division.
`clausen_closed_form` rescales the Bernoulli polynomials into the closed forms
of the trigonometric series with polynomial sums.

A command compiles this module only where it builds or evaluates a
polynomial: `extract`, `verify`, `matrix --check` and a `values` row whose
value holds a power of pi. `values` at a Bernoulli or Euler index, or at a
zeta or beta argument whose value is rational, reads `exactnum` alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Union

from . import exactnum

_ScalarLike = Union[int, Fraction]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"expected an exact rational, got {type(v).__name__}")


class _Poly:
    """Immutable polynomial in one variable `_VAR`; coeffs[k] multiplies
    _VAR**k. Each coefficient not of type `_ELEM` passes through `_coerce`;
    trailing zeros are trimmed, and the empty tuple is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if type(c) is self._ELEM else self._coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _lift(self, other) -> "_Poly":
        return other if isinstance(other, type(self)) else type(self)((other,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        """Coefficient of _VAR**k (zero beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self._ELEM()

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((type(self).__name__, self.coeffs))

    def __add__(self, other) -> "_Poly":
        a, b = self.coeffs, self._lift(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        return type(self)(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    __radd__ = __add__

    def __neg__(self) -> "_Poly":
        return type(self)(-c for c in self.coeffs)

    def __sub__(self, other) -> "_Poly":
        return self + -self._lift(other)

    def __repr__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            text = str(c)
            if " " in text:
                text = f"({text})"
            parts.append(text if k == 0 else f"{text}*{self._VAR}" + (f"^{k}" if k > 1 else ""))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class PiPolynomial(_Poly):
    """Polynomial in pi with rational coefficients; coeffs[k] multiplies pi**k."""

    __slots__ = ()
    _VAR = "pi"
    _ELEM = Fraction
    _coerce = staticmethod(_as_fraction)

    @classmethod
    def pi_power(cls, q: _ScalarLike, k: int) -> "PiPolynomial":
        """q * pi**k as a PiPolynomial."""
        if k < 0:
            raise ValueError("negative pi power")
        return cls((0,) * k + (q,))

    def is_rational(self) -> bool:
        return len(self.coeffs) <= 1

    def as_rational(self) -> Fraction:
        if len(self.coeffs) > 1:
            raise ValueError("polynomial has pi-dependent terms")
        return self.coeff(0)

    def __eq__(self, other) -> bool:
        return super().__eq__(PiPolynomial((other,)) if isinstance(other, (int, Fraction)) else other)

    def __hash__(self):  # a rational value equals its Fraction, so it hashes as that (zero as 0)
        return hash(self.coeff(0)) if self.is_rational() else super().__hash__()

    def __mul__(self, other) -> "PiPolynomial":
        if isinstance(other, (int, Fraction)):
            return PiPolynomial([c * other for c in self.coeffs])
        if isinstance(other, PiPolynomial):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return PiPolynomial(out)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PiPolynomial":
        q = _as_fraction(other)
        if q == 0:
            raise ZeroDivisionError("division by zero rational")
        return self * (1 / q)

    def __float__(self) -> float:
        """The value at pi to 128 + log2(degree) bits (so pi^degree carries
        127), rounded once to a double."""
        num, den = _at_pi(self, 128 + self.degree.bit_length())
        return num / den


PI = PiPolynomial((0, 1))


class PiXPolynomial(_Poly):
    """Polynomial in x whose coefficients are PiPolynomials; coeffs[j]
    multiplies x**j. Rational coefficients are lifted to PiPolynomials."""

    __slots__ = ()
    _VAR = "x"
    _ELEM = PiPolynomial

    @staticmethod
    def _coerce(c) -> PiPolynomial:
        return c if isinstance(c, PiPolynomial) else PiPolynomial((c,))

    @classmethod
    def monomial(cls, degree: int, coeff) -> "PiXPolynomial":
        return cls((0,) * degree + (coeff,))


def _at_pi(c: PiPolynomial, bits: int) -> tuple[int, int]:
    """c at pi 2^bits / 2^bits, pi 2^bits from `exactnum.pi_bits` (within one
    unit of its floor), exactly, as (num, den) with den > 0; zero coefficients
    cost nothing."""
    terms = [(k, a) for k, a in enumerate(c.coeffs) if a]
    if not terms:
        return 0, 1
    pi, top = exactnum.pi_bits(bits), terms[-1][0]
    den = math.lcm(*(a.denominator for _, a in terms))
    num = sum(a.numerator * (den // a.denominator) * pi**k << (top - k) * bits for k, a in terms)
    return num, den << top * bits


def pipoly_evaluator(p: PiXPolynomial):
    """x -> `p` at real x (an int, float or Fraction, taken exactly as its
    ratio of integers), rounded once to a double; nan where x is nan or
    infinite. The coefficients of `p` are evaluated at pi once, as integers
    scaled by 2^200 (60 digits); each call runs the Horner step in integers
    and rounds once, by an int/int division."""
    coeffs = [(num << 200) // den for num, den in (_at_pi(c, 256) for c in reversed(p.coeffs))]
    top, rest = (coeffs or [0])[0], coeffs[1:]

    def horner(x) -> float:
        try:
            num, den = x.as_integer_ratio()
        except (OverflowError, ValueError):  # x is nan or infinite: 0 * x, the first step, is nan
            return math.nan
        acc, den_pow = top, 1
        for c in rest:  # acc = den^i sum_(j <= i) c_j x^(i - j)
            den_pow *= den
            acc = acc * num + c * den_pow
        return acc / (den_pow << 200)

    return horner


def bernoulli_polynomial(m: int) -> PiXPolynomial:
    """Bernoulli polynomial B_m(x) = sum_k C(m,k) B_k x^(m-k), exact, monic."""
    if m < 0:
        raise ValueError("m must be >= 0")
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        bk = exactnum.bernoulli_number(k)
        if bk:
            coeffs[m - k] += comb(m, k) * bk
    return PiXPolynomial(coeffs)


def clausen_closed_form(parity: str, m: int) -> PiXPolynomial:
    """Exact closed form of the trigonometric series with polynomial sum:

      cos, weight n^-2m      ->  (-1)^(m-1) (2 pi)^(2m) / (2 (2m)!)   B_2m(x / 2 pi)
      sin, weight n^-(2m-1)  ->  (-1)^m     (2 pi)^(2m-1) / (2 (2m-1)!) B_(2m-1)(x / 2 pi)

    valid for x in [0, 2*pi]. Built by rescaling `bernoulli_polynomial`;
    coefficient of x^j is a single rational multiple of pi^(M - j).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if parity == "cos":
        order = 2 * m
        sign = Fraction((-1) ** (m - 1))
    elif parity == "sin":
        order = 2 * m - 1
        sign = Fraction((-1) ** m)
    else:
        raise ValueError("parity must be 'sin' or 'cos'")
    bp = bernoulli_polynomial(order)
    coeffs = []
    for j in range(order + 1):
        cj = bp.coeff(j).as_rational()
        q = sign * cj * (2 ** (order - j)) / (2 * factorial(order))
        coeffs.append(PiPolynomial.pi_power(q, order - j))
    return PiXPolynomial(coeffs)

