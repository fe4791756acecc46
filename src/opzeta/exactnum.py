"""Exact arithmetic: rationals, Bernoulli/Euler numbers, and polynomials
over Q and Q[pi].

`PiPolynomial` (in pi over Q) and `PiXPolynomial` (in x over Q[pi]) share
one private base, `_Poly`: the trimmed, immutable coefficient tuple, `+`,
`-`, equality, hashing and printing. All operations are pure.
`pipoly_evaluator` (coefficients at pi once, then Horner per x) and
`float(PiPolynomial)` compute in integers, with pi from the Chudnovsky
series in integers (`_pi_fixed`, through the first block of `_pi_block`), and
round the exact rational value once to a double by one int/int division. This
module holds no mpmath context.

Bernoulli and Euler numbers up to index 82 come from one immutable table,
built by the exact recurrences in integers on first use (the Bernoulli
numbers over one common denominator, the product of the primes up to 83:
about 1 ms against 6 ms as Fractions on a 2-vCPU VM); a larger index is one
rounded Dirichlet series (a row of `CHARACTERS`), summed in integers at a fixed
point: B_1000 and E_1000 take about 3 and 8 ms. The only other memo is pi
in blocks of 1,024 bits (`_pi_block`), built on first use, which those series
(about 8 blocks up to index 1000) and the evaluations in Q[pi] (one block)
shift down to their precision.
The Bernoulli convention is fixed to B_1 = -1/2 (the generating function
x/(e^x - 1)); the alternate B_1 = +1/2 convention is deliberately rejected
because every identity in this package is derived with the -1/2 sign.
Euler numbers use the sech generating function 2/(e^t + e^-t), under which
all odd-index values vanish.

`special_value` is the one route table of the operator values: for each kind
and exact argument it decides between the exact value, the numeric one and
the pole, for the kinds that key `NUMERIC_ROUTE`, zeta and beta by one
functional equation over their rows of `CHARACTERS`. It imports `specfun` for
a numeric value only, so no exact command compiles it. It, the `specfun`
kernels and the `series` routes return one record, `EvalResult`.
`clausen_closed_form` rescales the Bernoulli polynomials into the closed forms
of the trigonometric series with polynomial sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Iterable, NamedTuple, Optional, Union

from .errors import NotConverged

_ScalarLike = Union[int, Fraction]


def _chudnovsky_split(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) of the Chudnovsky terms a <= k < b by binary splitting: the
    sum of those terms is T / Q times the product of the terms before a."""
    if b - a == 1:  # 10939058860032000 = 640320^3 / 24
        p, q = ((6 * a - 5) * (2 * a - 1) * (6 * a - 1), a**3 * 10939058860032000) if a else (1, 1)
        return p, q, (-1) ** a * p * (13591409 + 545140134 * a)
    m = (a + b) // 2
    p1, q1, t1 = _chudnovsky_split(a, m)
    p2, q2, t2 = _chudnovsky_split(m, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _pi_fixed(bits: int) -> int:
    """pi 2^bits within one unit of floor(pi 2^bits), by the Chudnovsky series
    pi = 426880 sqrt(10005) Q / T in integers (binary splitting) at bits + 16
    bits. Each term adds 47.1 bits, so (bits + 16) // 47 + 2 terms leave a
    tail below 2^-(bits + 16 + 47) of pi; the floored sqrt(10005) errs by
    under one unit, which Q/T scales by pi/sqrt(10005) < 1/31, and the final
    division by under one unit: under 2 units of 2^-(bits + 16) in all, so the
    16 guard bits leave it within one unit of floor(pi 2^bits)."""
    work = bits + 16
    _, q, t = _chudnovsky_split(0, work // 47 + 2)
    return 426880 * math.isqrt(10005 << 2 * work) * q // t >> 16


@cache
def _pi_block(blocks: int) -> int:
    """`_pi_fixed(1024 blocks)`: computed once per block count."""
    return _pi_fixed(1024 * blocks)


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
    """c at floor(pi 2^bits) / 2^bits (bits <= 1024, pi from `_pi_block(1)`),
    exactly, as (num, den) with den > 0; zero coefficients cost nothing."""
    terms = [(k, a) for k, a in enumerate(c.coeffs) if a]
    if not terms:
        return 0, 1
    pi, top = _pi_block(1) >> (1024 - bits), terms[-1][0]
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


# B_n and E_n up to this index come from one table: the Euler-Maclaurin
# coefficients B_2k/(2k)! (k <= 41) and every index the registry touches
_TABLE_MAX = 82


@cache
def _small_numbers() -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """(B_0..B_82, E_0..E_82) by the exact recurrences, built on first use:
    sum_(j<m) C(m+1, j) B_j = -(m+1) B_m (the coefficients of x/(e^x - 1))
    and E_2m = -sum_(j<m) C(2m, 2j) E_2j (sech(t) cosh(t) = 1). The first
    runs in integers over one common denominator, `den` the product of the
    primes up to 83: by von Staudt-Clausen each B_m den is an integer, so each
    division by m + 1 is exact (checked); the Fractions are built at the end."""
    den = math.prod(p for p in range(2, _TABLE_MAX + 2) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    bern = [den, -den // 2]  # B_m den
    euler = [1, 0]
    for m in range(2, _TABLE_MAX + 1):
        if m % 2:
            bern.append(0)
            euler.append(0)
            continue
        total, rem = divmod(-sum(comb(m + 1, j) * b for j, b in enumerate(bern) if b), m + 1)
        if rem:
            raise ArithmeticError(f"B_{m} times {den} is not an integer")
        bern.append(total)
        euler.append(-sum(comb(m, j) * euler[j] for j in range(0, m, 2)))
    return tuple(Fraction(b, den) for b in bern), tuple(euler)


def _nint_l_value(scale: int, power: int, pi_mult: int, row: tuple[int, ...]) -> int:
    """The integer nearest to V = scale L / (pi_mult pi)^power, where L =
    sum_(k>=1) chi(k) k^-power, chi(k) = row[k % q] for a row of `CHARACTERS`
    (zeta or beta), is summed directly (Brent and Harvey, arXiv:1108.0286).

    Everything is an integer at `prec` fractional bits (u = 2^-prec): log2 V
    plus 24 guard bits and bit_length(power), the bits that pi^power loses,
    so that V u <= 2^-24 / power. The error budget, relative to V:
    - the sum: each term one // k^power is under one unit low, and the sum
      stops at the first omitted k with k^-power below u/4, so with L >= 1/2
      the sum is within 2 (k_stop + 1) u of L;
    - pi: `_pi_block` at the next multiple of 1,024 bits is within one unit
      of its floor, so shifted down to prec it is within one unit of
      floor(pi 2^prec). So pi_mult pi is within relative 2 u / pi, and its
      power within relative power u;
    - the powering: fewer than 2 bit_length(power) products, each shifted
      right by prec and so under one unit low on a value above pi.
    So the computed value is within (2 k_stop + 3 + power + bit_length(power))
    2^-24 / power of V: under 2^-21 for every B_n and E_n (k_stop < power).
    Rounds once by an integer division; raises NotConverged if the value
    lands more than 2^-16 from an integer."""
    log2_value = math.log2(scale) - power * math.log2(pi_mult * math.pi)
    prec = max(0, math.ceil(log2_value)) + power.bit_length() + 24
    k_stop = int(2.0 ** ((prec + 2) / power)) + 1
    one = 1 << prec
    series = sum(chi * (one // k**power) for k in range(1, k_stop + 1) if (chi := row[k % len(row)]))
    base = pi_mult * (_pi_block(-(-prec // 1024)) >> -prec % 1024)
    den = base
    for bit in bin(power)[3:]:  # left to right: square, then multiply on a set bit
        den = den * den >> prec
        if bit == "1":
            den = den * base >> prec
    num = scale * series  # V = num / den
    nearest = (2 * num + den) // (2 * den)
    miss = num - nearest * den
    if abs(miss) << 16 > den:
        raise NotConverged(f"L-value rounding: {miss / den:.3g} from the nearest integer")
    return nearest


def _staudt_clausen_denominator(n: int) -> int:
    """Denominator of B_n for even n >= 2: the product of the primes p with
    (p - 1) | n (von Staudt-Clausen)."""
    den = 1
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            for p in {d + 1, n // d + 1}:
                if all(p % q for q in range(2, math.isqrt(p) + 1)):
                    den *= p
    return den


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n, convention B_1 = -1/2 (x/(e^x - 1)).

    n <= 82 reads the exact table; odd n >= 3 is zero; a larger even n is
    (-1)^(n/2+1) 2 n! zeta(n) / (2 pi)^n with the denominator D of von
    Staudt-Clausen and the numerator the integer nearest to D |B_n|.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= _TABLE_MAX:
        return _small_numbers()[0][n]
    if n % 2:
        return Fraction(0)
    den = _staudt_clausen_denominator(n)
    return Fraction((-1) ** (n // 2 + 1) * _nint_l_value(2 * factorial(n) * den, n, 2, CHARACTERS["zeta"]), den)


# empties the small table, so that the next call computes it cold (for timing)
bernoulli_number.cache_clear = _small_numbers.cache_clear


def bernoulli_polynomial(m: int) -> PiXPolynomial:
    """Bernoulli polynomial B_m(x) = sum_k C(m,k) B_k x^(m-k), exact, monic."""
    if m < 0:
        raise ValueError("m must be >= 0")
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        bk = bernoulli_number(k)
        if bk:
            coeffs[m - k] += comb(m, k) * bk
    return PiXPolynomial(coeffs)


def euler_number(n: int) -> int:
    """Euler number E_n from 2/(e^t + e^-t); odd indices vanish.

    n <= 82 reads the exact table; a larger even n is the integer nearest to
    (-1)^(n/2) 2^(n+2) n! beta(n+1) / pi^(n+1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n <= _TABLE_MAX:
        return _small_numbers()[1][n]
    if n % 2:
        return 0
    return (-1) ** (n // 2) * _nint_l_value(2 ** (n + 2) * factorial(n), n + 1, 1, CHARACTERS["beta"])


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


# --- the route table of the operator values ------------------------------------

class EvalResult(NamedTuple):
    """A value, its bound and the method that made it: the record of every
    route. By method: exact, a Fraction or PiPolynomial, bound 0.0; pole,
    None, bound None; a route of `NUMERIC_ROUTE` (in `specfun`), a complex
    double; partial_sum or abel_closed_form (in `series`), a double."""

    value: object
    abs_error_estimate: Optional[float]
    method: str


NUMERIC_ROUTE = {"zeta": "euler_maclaurin", "beta": "hurwitz_difference", "recip_gamma": "rgamma"}
# the real Dirichlet character of each L-function kind: chi(n) = row[n % q], q the row's length (its conductor)
CHARACTERS = {"zeta": (1,), "beta": (0, 1, 0, -1)}


def special_value(kind: str, arg: Fraction) -> EvalResult:
    """kind(arg) for kind zeta, beta or recip_gamma at an exact argument: the
    exact value, the pole (zeta(1)) or the record of the `specfun` kernel of
    route `NUMERIC_ROUTE[kind]`.

    A kind of `CHARACTERS` is exact at every integer k <= 0 and, by the
    functional equation, at k >= 1 with chi(-1) = (-1)^k; zeta at odd and beta
    at even k >= 2 have no closed form. 1/Gamma is 0 at the Gamma poles.
    `specfun` is imported for a numeric value only."""
    if kind not in NUMERIC_ROUTE:
        raise ValueError(f"kind must be one of {tuple(NUMERIC_ROUTE)}")
    exact, row = None, CHARACTERS.get(kind)
    if arg.denominator == 1:
        k = int(arg)  # (-1) ** -k below: (-1) ** k is a float at k < 0
        if row is None:
            exact = Fraction(0) if k <= 0 else Fraction(1, factorial(k - 1))
        elif len(row) == 1 and k == 1:
            return EvalResult(None, None, "pole")
        elif k <= 0:  # zeta(-n) = (-1)^n B_(n+1)/(n+1), zero at even n >= 2; beta(-n) = E_n/2, zero at odd n
            exact = (-1) ** -k * bernoulli_number(1 - k) / (1 - k) if len(row) == 1 else Fraction(euler_number(-k), 2)
        elif row[-1] == (-1) ** k:  # chi(-1) = (-1)^k: L(k) = (-1)^(k//2) (sqrt(q)/2) (2 pi/q)^k L(1-k)/(k-1)!
            q = len(row)  # a square (DLMF 25.15; Apostol, ch. 12)
            c = Fraction((-1) ** (k // 2) * math.isqrt(q) * 2 ** (k - 1), q**k * factorial(k - 1))
            exact = PiPolynomial.pi_power(c * special_value(kind, Fraction(1 - k)).value, k)
    if exact is not None:
        return EvalResult(exact, 0.0, "exact")
    from . import specfun

    # arg goes in exactly: rounded to a double first, zeta(-221/10) errs by 16 times its bound
    return {"zeta": specfun.zeta_em, "beta": specfun.dirichlet_beta, "recip_gamma": specfun.recip_gamma}[kind](arg)
