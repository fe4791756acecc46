"""Numeric and exact evaluation of zeta, Dirichlet beta and 1/Gamma, and the
closed forms of the trigonometric series with polynomial sums.

Numeric kernels run in mpmath working precision sized to the cancellation
headroom of the argument, then round once to a complex double; the
Euler-Maclaurin corrections run in integers at a fixed point below that
precision (`_em_sum`). The heads of zeta and beta come from one table of
m^-s per call (`_power_table`): m^-s and chi_4 are completely
multiplicative, so each prime takes one mpmath power and each composite one
product. Each thread computes in its own mpmath context
(`_working_precision`), local integers and a local table; there is no lock
and no process-global precision, so the public functions are safe for
concurrent use and leave mpmath's global `mp` context untouched. The one
shared value is the bounded memo of logarithms `_ln` (log m for the powers,
log((4N+3)/(4N+1)) for beta's pole term), one immutable mpmath value per
integer pair and precision, filled on first use with no lock: threads that
race on a key compute the same value. mpmath is imported on the first
numeric call, so the exact values never load it.

`special_value` is the one route table of the operator values: for each kind
and exact argument it decides between the exact value, the numeric one and
the pole.
"""

from __future__ import annotations

import math
import threading
import warnings
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial
from typing import NamedTuple

from .errors import NotConverged, PoleAtOne, PrecisionLoss
from .exactnum import (
    PiPolynomial,
    PiXPolynomial,
    bernoulli_number,
    bernoulli_polynomial,
    euler_number,
)

_THREAD = threading.local()

# Validated accuracy domain of the Euler-Maclaurin evaluator.
_EM_RE_MIN = -25.0
_EM_IM_MAX = 50.0
# Euler-Maclaurin remainder target in units of the returned value, met within
# _EM_K_MAX terms: a hundredth of the 1e-16 floor both evaluators add.
_EM_TARGET = 1e-18
_EM_K_MAX = 41
# Entries of the memo `_ln`: the validated domain reaches about 5,000 keys
# (1,055 on the real axis, the rest beta's pole logarithm at complex s).
_LN_MEMO_SIZE = 8192


@contextmanager
def _working_precision(dps: int):
    """Yield the calling thread's own mpmath context (built once per thread)
    at `dps` digits; on exit, nested or not, the previous precision returns."""
    ctx = getattr(_THREAD, "ctx", None)
    if ctx is None:
        import mpmath  # on first numeric use only: the exact paths never load it

        ctx = _THREAD.ctx = mpmath.MPContext()
    prec = ctx.prec
    ctx.dps = dps
    try:
        yield ctx
    finally:
        ctx.prec = prec


class EvalResult(NamedTuple):
    """Numeric value with the producing algorithm's claimed error bound."""

    value: complex
    abs_error_estimate: float


def _ratio(s) -> tuple[int, int, int]:
    """s = (p_re + i p_im)/q exactly: a Fraction as it is, any other number as its complex double."""
    if isinstance(s, Fraction):
        return s.numerator, 0, s.denominator
    (re_n, re_d), (im_n, im_d) = complex(s).real.as_integer_ratio(), complex(s).imag.as_integer_ratio()
    q = max(re_d, im_d)  # both powers of two
    return re_n * (q // re_d), im_n * (q // im_d), q


def _mp_of(ctx, ratio):
    """s = `_ratio(s)` in ctx: an mpf when s is real (float, int, Fraction), an mpc otherwise."""
    p_re, p_im, q = ratio
    return (ctx.mpc(p_re, p_im) if p_im else ctx.mpf(p_re)) / q


@cache
def _em_coefficients() -> tuple[tuple[Fraction, ...], tuple[float, ...]]:
    """B_2k/(2k)!, k = 1..K_max, exact and |.| as doubles: built on first use."""
    exact = tuple(bernoulli_number(2 * k) / factorial(2 * k) for k in range(1, _EM_K_MAX + 1))
    return exact, tuple(abs(float(c)) for c in exact)


def _em_params(sig: float, tau: float, stride: int = 1) -> tuple[int, int]:
    """(N, dps) at s: N meets the remainder target within K_max terms; dps covers
    head terms up to (stride (N + 2))^-sigma (stride 4 for beta's 4^-s).
    Raises NotConverged where no K <= 41 has a finite remainder bound
    (sigma + 2 K_max - 1 <= 0), before any work."""
    if sig + 2 * _EM_K_MAX - 1 <= 0:
        raise NotConverged(
            f"Euler-Maclaurin at Re s = {sig:g}: no finite remainder bound within "
            f"{_EM_K_MAX} terms at Re s <= {-2 * _EM_K_MAX + 1}"
        )
    n = max(10, int(0.6 * -sig) + 8) + (int(1.3 * tau) + 12 if tau else 0)
    dps = 25 + int(max(0.0, -sig) * math.log10(stride * (n + 2))) + int(0.12 * tau)
    return n, dps


@lru_cache(maxsize=_LN_MEMO_SIZE)
def _ln(a: int, b: int, prec: int) -> tuple:
    """log(a/b) at `prec` bits as a raw mpmath value (a libmp tuple), rounded
    to nearest as mpmath's log of the mpf a/b is: computed once per
    (a, b, prec)."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, round_nearest

    return mpf_log(mpf_div(from_int(a), from_int(b), prec, round_nearest), prec, round_nearest)


def _powers(ctx, neg):
    """m -> m^neg for an integer m >= 1, bit-identical to ctx.mpf(m) ** neg.
    At a real neg that is neither an integer nor a half-integer, mpmath's
    power is exp(neg log m), with log m at prec + 10 bits; this takes the log
    from the memo `_ln`. An integer power (squarings) or a half-integer one
    (a square root) takes no logarithm, and a complex power rounds its log
    another way: those stay mpmath's `**`."""
    t = getattr(neg, "_mpf_", None)
    if t is None or t[2] >= -1:  # complex, or an integer or half-integer (binary exponent >= -1)
        return lambda m: ctx.mpf(m) ** neg
    from mpmath.libmp import mpf_exp, mpf_mul, round_nearest

    prec = ctx.prec
    return lambda m: ctx.make_mpf(mpf_exp(mpf_mul(t, _ln(m, 1, prec + 10)), prec, round_nearest))


def _power_table(ctx, smp, top: int, odd: bool = False) -> list:
    """m^-s at m = 1..top (odd m only if `odd`; None elsewhere), by a linear
    sieve: a prime m is one mpmath power (`_powers`, each log m from the
    memo), a composite m = p c, p its smallest prime factor, the product of
    the entries at c and p. Each power is the very value ctx.mpf(m) ** -s
    gives, so the error budget is mpmath's: m has at most log2(m) prime
    factors, so its entry is at most log2(m) powers, each within one ulp at
    prec, joined by fewer products, each within half an ulp: within relative
    3 log2(m) 2^-prec of m^-s (at m <= 4N + 3, under 2^(5-prec) in the
    validated domain)."""
    table = [None] * (top + 1)
    table[1] = ctx.mpf(1)
    power, primes = _powers(ctx, -smp), []
    for m in range(2 + odd, top + 1, 1 + odd):
        if table[m] is None:
            table[m] = power(m)
            primes.append(m)
        for p in primes:
            if m * p > top:
                break
            table[m * p] = table[m] * table[p]
            if m % p == 0:
                break
    return table


def _em_sum(ctx, ratio, smp, a: float, n_cut: int, unit: float, head, base_pow):
    """Euler-Maclaurin sum_(n>=0) (n + a)^-s less its pole term base^(1-s)/(s-1),
    base = N + a, at s = `smp` = (p_re + i p_im)/q (`ratio`): the caller's head
    sum_(n<N) (n + a)^-s and base^-s (from `_power_table` at a in {1, 1/4,
    3/4}; its rounding stays within the 25 guard digits of dps), plus
    base^-s / 2 and sum_(k<=K) B_2k/(2k)! g_k, g_k = (s)_(2k-1)
    base^(-s-2k+1), in integers. K <= 41 is the first K
    whose remainder bound after K terms, |B_2K/(2K)!| |(s)_2K|
    base^(-sigma-2K+1)/(sigma+2K-1) (Johansson, arXiv:1309.2877, theorem 1
    with M = K), carried in doubles, times `unit` (the returned value per unit
    of this sum) is below _EM_TARGET.

    The corrections take s exactly as (p_re + i p_im)/q and base as bn/bd,
    and run in Gaussian integers at the fixed point 2^-F, F = prec + 16
    - mag(base^-s) - bit_length(int(|s|)): one unit is under 2^-(prec+14)
    max(1, |s|) |base^-s|. g_1 = s base^-s / base is floored to it once, each
    step is g_(k+1) = g_k (p + (2k-1)q)(p + 2kq) bd^2 // (q bn)^2, and each
    term g_k num // den, with B_2k/(2k)! = num/den. Error budget: each floor
    errs by under one unit; a unit lost in g_j reaches term k scaled by
    |B_2j/(2j)!| <= 1/12 times the ratio of term k to term j, under 1 while
    the terms fall, as they do up to the stopping K. So at most 41 terms err
    by under 41 (1 + 41/12) < 2^8 units (the worst seen on Re s in [-80, 12]
    was 26), below 2^-(prec+6) max(1, |s|) |base^-s|. The sum enters the mpf
    total as one mpf. Returns (sum, base^(1-s), bound in units of the sum)."""
    p_re, p_im, q = ratio
    sc = complex(p_re / q, p_im / q)  # complex(s): int / int rounds once
    exact, approx = _em_coefficients()
    base = n_cut + ctx.mpf(a)
    a_num, bd = a.as_integer_ratio()
    step_den, bd_sq = (q * (n_cut * bd + a_num)) ** 2, bd * bd  # bn = n_cut bd + a_num
    frac_bits = ctx.prec + 16 - ctx.mag(base_pow) - int(abs(sc)).bit_length()
    g1 = smp * base_pow / base
    g_re, g_im = g1.real.to_fixed(frac_bits), g1.imag.to_fixed(frac_bits)
    sum_re = sum_im = 0
    b = float(base)
    g_abs, err = abs(sc) * float(abs(base_pow)) / b, math.inf
    for k in range(1, _EM_K_MAX + 1):
        num, den = exact[k - 1].numerator, exact[k - 1].denominator
        sum_re += g_re * num // den
        sum_im += g_im * num // den
        if sc.real + 2 * k - 1 > 0:
            err = approx[k - 1] * g_abs * abs(sc + 2 * k - 1) / (sc.real + 2 * k - 1)
            if unit * err < _EM_TARGET:
                break
        # (p + (2k-1)q)(p + 2kq) bd^2, p = p_re + i p_im
        u, v = p_re + (2 * k - 1) * q, p_re + 2 * k * q
        m_re, m_im = (u * v - p_im * p_im) * bd_sq, p_im * (u + v) * bd_sq
        g_re, g_im = (g_re * m_re - g_im * m_im) // step_den, (g_re * m_im + g_im * m_re) // step_den
        g_abs *= abs(sc + 2 * k - 1) * abs(sc + 2 * k) / (b * b)
    corr = ctx.mpc((sum_re, -frac_bits), (sum_im, -frac_bits)) if sum_im else ctx.mpf((sum_re, -frac_bits))
    return head + base_pow / 2 + corr, base * base_pow, err


def _check_validated_domain(s, caller: str) -> None:
    """Warn PrecisionLoss outside the validated domain, naming `caller`, the
    public function that called this one, at the line that called it."""
    sig, tau = s.real, abs(s.imag)
    if sig < _EM_RE_MIN or tau > _EM_IM_MAX:
        warnings.warn(
            f"{caller}: s={s} outside the validated domain "
            f"(Re s >= {_EM_RE_MIN}, |Im s| <= {_EM_IM_MAX}); "
            "returning best-effort value",
            PrecisionLoss,
            stacklevel=3,
        )


def zeta_em(s) -> EvalResult:
    """Riemann zeta via Euler-Maclaurin continuation of sum n^-s (`_em_sum`):
    N = max(10, 8 + 0.6(-sigma)) head terms, plus 12 + 1.3|tau| for complex
    s, and base^-s, all read from one table of m^-s, m <= N + 1
    (`_power_table`, one power per prime), then K <= 41 corrections, K the
    first whose remainder bound is below 1e-18, summed in integers. The bound
    is the floor |value|*1e-15 + 1e-16 in Re s >= -25, |Im s| <= 50. Raises
    PoleAtOne within 1e-13 of s = 1."""
    sc = complex(s)
    if abs(sc - 1) < 1e-13:
        raise PoleAtOne(f"s={sc} is within 1e-13 of the pole at s=1")
    _check_validated_domain(sc, "zeta_em")
    n_cut, dps = _em_params(sc.real, abs(sc.imag))
    ratio = _ratio(s)
    with _working_precision(dps) as ctx:
        smp = _mp_of(ctx, ratio)
        table = _power_table(ctx, smp, n_cut + 1)
        head, base_pow = ctx.fsum(table[1:n_cut + 1]), table[n_cut + 1]
        part, lead, err = _em_sum(ctx, ratio, smp, 1.0, n_cut, 1.0, head, base_pow)
        out = complex(part + lead / (smp - 1))
    return EvalResult(out, max(err, abs(out) * 1e-15 + 1e-16))


def dirichlet_beta(s) -> EvalResult:
    """Dirichlet beta (the L-function of the nontrivial character mod 4),
    entire, via 4^-s [zeta(s, 1/4) - zeta(s, 3/4)].

    Both heads and base powers come from one table of m^-s over odd
    m <= 4N + 3 (`_power_table`), as (n + 1/4)^-s = 4^s (4n+1)^-s and
    (n + 3/4)^-s = 4^s (4n+3)^-s. The two Hurwitz pole terms cancel
    analytically; the difference of the Euler-Maclaurin pole parts is
    combined through expm1 so s = 1 needs no special casing beyond the 0/0
    limit. N is zeta_em's; each correction loop stops once |4^-s| times its
    remainder bound is below 1e-18, which is added to the floor
    |value|*1e-15 + 1e-16. dps also covers the 4^-s scale."""
    sc = complex(s)
    _check_validated_domain(sc, "dirichlet_beta")
    n_cut, dps = _em_params(sc.real, abs(sc.imag), stride=4)
    ratio = _ratio(s)
    with _working_precision(dps) as ctx:
        smp = _mp_of(ctx, ratio)
        four_pow = _powers(ctx, -smp)(4)
        four_s, scale = 1 / four_pow, float(abs(four_pow))
        n4 = 4 * n_cut
        table = _power_table(ctx, smp, n4 + 3, odd=True)
        head1, head2 = four_s * ctx.fsum(table[1:n4:4]), four_s * ctx.fsum(table[3:n4:4])
        part1, lead1, err1 = _em_sum(ctx, ratio, smp, 0.25, n_cut, scale, head1, four_s * table[n4 + 1])
        part2, _, err2 = _em_sum(ctx, ratio, smp, 0.75, n_cut, scale, head2, four_s * table[n4 + 3])
        # b1, b2 = N + 1/4, N + 3/4: [b1^(1-s) - b2^(1-s)]/(s-1) = -b1^(1-s) expm1((1-s) log(b2/b1))/(s-1)
        log_ratio = ctx.make_mpf(_ln(n4 + 3, n4 + 1, ctx.prec))
        if abs(smp - 1) < 1e-13:
            pole = lead1 * log_ratio
        else:
            pole = -lead1 * ctx.expm1((1 - smp) * log_ratio) / (smp - 1)
        out = complex(four_pow * (part1 - part2 + pole))
    return EvalResult(out, scale * (err1 + err2) + abs(out) * 1e-15 + 1e-16)


def recip_gamma(s) -> complex:
    """1/Gamma(s), evaluated as an entire function (never as 1/Gamma-value).

    Exactly zero at nonpositive real integers; this is the annihilation
    mechanism the operator engine relies on. Absolute accuracy 1e-12 where
    the value has order <= 1, relative 1e-12 elsewhere (|s| <= 30).
    """
    sc = complex(s)
    if sc.imag == 0.0 and sc.real <= 0 and sc.real == int(sc.real):
        return complex(0.0)
    with _working_precision(50) as ctx:
        return complex(ctx.rgamma(_mp_of(ctx, _ratio(s))))


_NUMERIC_ROUTE = {"zeta": "euler_maclaurin", "beta": "hurwitz_difference", "recip_gamma": "rgamma"}


def special_value(kind: str, arg: Fraction):
    """kind(arg) for kind zeta, beta or recip_gamma at an exact argument, as
    (tag, value, abs_error_estimate, method), with tag and method:

      exact    a Fraction or PiPolynomial, error 0.0, method 'exact';
      pole     zeta(1): value and error None, method 'pole';
      numeric  a complex double and its bound, method the route's name:
               euler_maclaurin (zeta_em), hurwitz_difference
               (dirichlet_beta) or rgamma (recip_gamma, bound 1e-12
               max(1, |value|)).

    Exact at every integer but zeta at odd n >= 3 and beta at even n >= 2,
    which have no closed form; 1/Gamma is 0 at the Gamma poles."""
    if kind not in _NUMERIC_ROUTE:
        raise ValueError(f"kind must be one of {tuple(_NUMERIC_ROUTE)}")
    exact = None
    if arg.denominator == 1:
        k = int(arg)  # (-1) ** -k below: (-1) ** k is a float at k < 0
        if kind == "zeta":
            if k == 1:
                return "pole", None, None, "pole"
            if k <= 0:  # zeta(-n) = (-1)^n B_(n+1)/(n+1), n >= 0; zero at even n >= 2
                exact = (-1) ** -k * bernoulli_number(1 - k) / (1 - k)
            elif k % 2 == 0:  # zeta(2m) = (-1)^(m+1) B_2m (2 pi)^2m / (2 (2m)!)
                q = (-1) ** (k // 2 + 1) * bernoulli_number(k) * 2 ** (k - 1) / factorial(k)
                exact = PiPolynomial.pi_power(q, k)
        elif kind == "beta":
            if k <= 0:  # beta(-n) = E_n/2, n >= 0; zero at odd n
                exact = Fraction(euler_number(-k), 2)
            elif k % 2:  # beta(2m+1) = (-1)^m E_2m pi^(2m+1) / (4^(m+1) (2m)!)
                q = Fraction((-1) ** (k // 2) * euler_number(k - 1), 2 ** (k + 1) * factorial(k - 1))
                exact = PiPolynomial.pi_power(q, k)
        else:
            exact = Fraction(0) if k <= 0 else Fraction(1, factorial(k - 1))
    if exact is not None:
        return "exact", exact, 0.0, "exact"
    # arg goes in exactly: rounded to a double first, zeta(-221/10) errs by 16 times its bound
    if kind == "recip_gamma":
        value = recip_gamma(arg)
        return "numeric", value, 1e-12 * max(1.0, abs(value)), _NUMERIC_ROUTE[kind]
    r = zeta_em(arg) if kind == "zeta" else dirichlet_beta(arg)
    return "numeric", r.value, r.abs_error_estimate, _NUMERIC_ROUTE[kind]


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
