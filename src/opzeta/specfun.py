"""Numeric evaluation of zeta, Dirichlet beta and 1/Gamma.

zeta and beta are the two rows of `exactnum.CHARACTERS`, and one kernel,
`_l_em`, evaluates either row by Euler-Maclaurin. It computes on raw mpmath
values (libmp tuples) at an explicit precision, prec = dps_to_prec(dps), dps
sized to the cancellation headroom of the argument, then rounds once to a
complex double. A call picks once, from whether s is real, the mpf_* or mpc_*
operations mpmath's operators apply (`_arith`), so each value is bit-identical
to mpmath's numbers at prec. The Euler-Maclaurin corrections run in integers,
one loop over k for every shift of a call (`_em_sum`); the heads come from one
table of m^-s per call (`_power_table`, one power per prime). A call keeps its
state in local values, with no mpmath context, no lock and no process-global
precision: the public functions are safe for concurrent use and leave mpmath's
`mp` alone. Beside immutable tables built once (`_arith`, `_em_coefficients`),
the one shared value is the bounded memo of logarithms `_ln` (log m for the
powers, log((4N+3)/(4N+1)) for beta's pole term), filled with no lock: threads
that race on a key compute the same value. mpmath is imported on the first
numeric call; `zeta_em` raises `PoleHit`, the one pole error, near s = 1.

The exact values live in `exactnum`, with `special_value`, the route table
that picks for each kind and exact argument between the exact value, these
kernels and the pole, and imports this module for a numeric value only: an
exact command never compiles it. Each kernel returns `exactnum.EvalResult`,
its method the kernel's name in `NUMERIC_ROUTE`.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from fractions import Fraction
from functools import cache, lru_cache
from math import factorial

from .errors import NotConverged, PoleHit, PrecisionLoss
from .exactnum import CHARACTERS, NUMERIC_ROUTE, EvalResult, bernoulli_number

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
# `_arith`'s operations by their mpmath.libmp names at a complex s; at a real s, the
# mpf one less the mixed-type part of the name (mpc_mul_mpf -> mpf_mul, mpc_mpf_div -> mpf_div)
_OPS = "mul div add sub neg abs pos exp pow rgamma mul_mpf div_mpf add_mpf sub_mpf mpf_div".split()
_Arith = namedtuple("_Arith", [*_OPS, "sum", "complex", "one", "lib"])
_RND = "n"  # mpmath.libmp.round_nearest, the rounding of mpmath's operators


def _ratio(s) -> tuple[int, int, int]:
    """s = (p_re + i p_im)/q exactly: a Fraction as it is, any other number as its complex double."""
    if isinstance(s, Fraction):
        return s.numerator, 0, s.denominator
    (re_n, re_d), (im_n, im_d) = complex(s).real.as_integer_ratio(), complex(s).imag.as_integer_ratio()
    q = max(re_d, im_d)  # both powers of two
    return re_n * (q // re_d), im_n * (q // im_d), q


@cache
def _arith(real: bool) -> _Arith:
    """The raw arithmetic of a real or a complex s as mpmath's operators apply
    it, built once per kind: each operation of `_OPS`, called with (prec, rnd)
    (an `_mpf` form takes a real right operand, `mpf_div` a real left one);
    sum(xs, prec, rnd), mpmath's fsum; complex(x, rnd); 1; and mpmath.libmp."""
    from mpmath import libmp

    ops = [getattr(libmp, "mpf_" + op.replace("_mpf", "").replace("mpf_", "") if real else "mpc_" + op) for op in _OPS]
    if real:
        return _Arith(*ops, libmp.mpf_sum, lambda x, rnd: complex(libmp.to_float(x, False, rnd)), libmp.fone, libmp)
    return _Arith(*ops, lambda xs, prec, rnd: tuple(libmp.mpf_sum([x[i] for x in xs], prec, rnd) for i in (0, 1)),
                  lambda z, rnd: libmp.mpc_to_complex(z, False, rnd), (libmp.fone, libmp.fzero), libmp)


def _call(s, dps: int) -> tuple:
    """(`_ratio(s)`, the `_arith` of its kind, prec = dps_to_prec(dps), s raw
    at prec as mpmath's mpf(p_re) / q or mpc(p_re, p_im) / q gives it)."""
    ratio = p_re, p_im, q = _ratio(s)
    ar = _arith(not p_im)
    prec, from_int = ar.lib.dps_to_prec(dps), ar.lib.from_int
    num = from_int(p_re, prec, _RND) if not p_im else (from_int(p_re, prec, _RND), from_int(p_im, prec, _RND))
    return ratio, ar, prec, ar.div_mpf(num, from_int(q), prec, _RND)


def _mag(x) -> int:
    """mpmath's `mag` of a nonzero raw mpf or mpc: exponent plus bit count (+1 for two nonzero parts)."""
    mags = [t[2] + t[3] for t in ((x,) if len(x) == 4 else x) if t[1]]
    return max(mags) + len(mags) - 1


@cache
def _em_coefficients() -> tuple[tuple[tuple[int, int], ...], tuple[float, ...]]:
    """B_2k/(2k)!, k = 1..K_max, as (numerator, denominator) and |.| as doubles: built on first use."""
    exact = [bernoulli_number(2 * k) / factorial(2 * k) for k in range(1, _EM_K_MAX + 1)]
    return tuple(c.as_integer_ratio() for c in exact), tuple(abs(float(c)) for c in exact)


def _em_params(sig: float, tau: float, stride: int = 1) -> tuple[int, int]:
    """(N, dps) at s: N meets the remainder target within K_max terms; dps covers
    head terms up to (stride (N + 2))^-sigma (stride q for a conductor q). Raises
    NotConverged where no K <= 41 has a finite bound (sigma + 2 K_max <= 1)."""
    if sig + 2 * _EM_K_MAX - 1 <= 0:
        raise NotConverged(f"Euler-Maclaurin at Re s = {sig:g}: no finite remainder bound within "
                           f"{_EM_K_MAX} terms at Re s <= {-2 * _EM_K_MAX + 1}")
    n = max(10, int(0.6 * -sig) + 8) + (int(1.3 * tau) + 12 if tau else 0)
    dps = 25 + int(max(0.0, -sig) * math.log10(stride * (n + 2))) + int(0.12 * tau)
    return n, dps


@lru_cache(maxsize=_LN_MEMO_SIZE)
def _ln(a: int, b: int, prec: int) -> tuple:
    """log(a/b) at `prec` bits, raw, rounded to nearest as mpmath's log of the
    mpf a/b is: computed once per (a, b, prec)."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, round_nearest

    return mpf_log(mpf_div(from_int(a), from_int(b), prec, round_nearest), prec, round_nearest)


def _powers(ar, prec: int, neg):
    """m -> m^neg at an integer m >= 1, neg = -s raw, as mpmath's mpf(m) ** neg
    at `prec` bits: exp(neg log m), log m at prec + 10 bits from the memo
    `_ln`, at a real neg not an integer or half-integer; else mpf_pow (squarings
    or a square root) or mpc_pow (which rounds its log another way)."""
    exp, mul, pow_, from_int, fzero = ar.exp, ar.mul, ar.pow, ar.lib.from_int, ar.lib.fzero
    if len(neg) == 2:  # an mpc
        return lambda m: pow_((from_int(m), fzero), neg, prec, _RND)
    if neg[2] >= -1:  # an integer or half-integer (binary exponent >= -1)
        return lambda m: pow_(from_int(m), neg, prec, _RND)
    return lambda m: exp(mul(neg, _ln(m, 1, prec + 10)), prec, _RND)


def _power_table(ar, prec: int, neg, top: int, odd: bool = False) -> list:
    """m^neg, neg = -s raw, at m = 1..top (odd m only if `odd`; None
    elsewhere), by a linear sieve: a prime m is one power (`_powers`), a
    composite m = p c, p its smallest prime factor, the product of the entries
    at c and p: at most log2(m) powers within an ulp joined by products within
    half an ulp, within relative 3 log2(m) 2^-prec of m^-s."""
    table = [None] * (top + 1)
    table[1] = ar.one
    power, mul, primes = _powers(ar, prec, neg), ar.mul, []
    for m in range(2 + odd, top + 1, 1 + odd):
        if table[m] is None:
            table[m] = power(m)
            primes.append(m)
        for p in primes:
            if m * p > top:
                break
            table[m * p] = mul(table[m], table[p], prec, _RND)
            if m % p == 0:
                break
    return table


class _Tail:
    """One shift in `_em_sum`'s loop: g_k and the sum so far as Gaussian
    integers re + i im (im stays 0 at a real s), |g_k| and the last bound."""

    __slots__ = ("re", "im", "re_sum", "im_sum", "g_abs", "err", "b_sq", "bd_sq", "den")

    def __init__(self, g: tuple, g_abs: float, b: float, bd: int, den: int):
        (self.re, self.im), self.re_sum, self.im_sum, self.g_abs, self.err = g, 0, 0, g_abs, math.inf
        self.b_sq, self.bd_sq, self.den = b * b, bd * bd, den


def _em_sum(ar, prec: int, ratio, s, n_cut: int, unit: float, shifts) -> list:
    """Euler-Maclaurin sum_(n>=0) (n + a)^-s less its pole term base^(1-s)/(s-1),
    base = N + a = bn/bd, at s = p/q, p = p_re + i p_im (`ratio`, `s` raw), per
    (a, head, base^-s) of `shifts`: head + base^-s / 2 + sum_(k<=K) B_2k/(2k)! g_k,
    g_k = (s)_(2k-1) base^(-s-2k+1). One loop over k takes every shift, each
    to its K <= 41, the first whose remainder bound |B_2K/(2K)!| |(s)_2K|
    base^(-sigma-2K+1)/(sigma+2K-1) (Johansson, arXiv:1309.2877, theorem 1,
    M = K) times `unit` (value per unit of sum) is below _EM_TARGET. The
    corrections run in Gaussian integers (integers at a real s) at 2^-F, F =
    prec + 16 - mag(base^-s) - bit_length(int(|s|)): g_1 = s base^-s / base
    floored once, g_(k+1) = g_k (p + (2k-1)q)(p + 2kq) bd^2 // (q bn)^2, each
    term g_k num // den, B_2k/(2k)! = num/den. A unit lost in g_j reaches term
    k scaled by at most 1/12 while the terms fall, as up to K, so the sum errs
    by under 41 (1 + 41/12) < 2^8 units (26 seen on Re s in [-80, 12]), below
    2^-(prec+6) max(1, |s|) |base^-s|. Returns (sum, base^(1-s), bound in
    units of the sum) per shift."""
    from_man_exp, to_fixed, to_float = ar.lib.from_man_exp, ar.lib.to_fixed, ar.lib.to_float
    p_re, p_im, q = ratio
    sc = complex(p_re / q, p_im / q)  # complex(s): int / int rounds once
    (exact, approx), real, size = _em_coefficients(), not p_im, int(abs(sc)).bit_length()
    z, tails, fixed = sc.real if real else sc, [], []  # |z + j| = |s + j|, a double's at a real s
    for a, head, base_pow in shifts:
        (a_num, bd), b = a.as_integer_ratio(), n_cut + a  # bd a power of 2, b = float(base)
        base, frac_bits = from_man_exp(n_cut * bd + a_num, 1 - bd.bit_length()), prec + 16 - _mag(base_pow) - size
        g1 = ar.div_mpf(ar.mul(s, base_pow, prec, _RND), base, prec, _RND)
        g = (to_fixed(g1, frac_bits), 0) if real else (to_fixed(g1[0], frac_bits), to_fixed(g1[1], frac_bits))
        g_abs = abs(sc) * to_float(ar.abs(base_pow, prec, _RND), False, _RND) / b
        tails.append(_Tail(g, g_abs, b, bd, (q * (n_cut * bd + a_num)) ** 2))  # bn = n_cut bd + a_num
        fixed.append((head, base_pow, base, frac_bits))
    live, sig = tails, sc.real
    for k, (num, den), coeff_abs in zip(range(1, _EM_K_MAX + 1), exact, approx):
        low, c1, c2 = sig + 2 * k - 1, abs(z + 2 * k - 1), abs(z + 2 * k)
        u, v = p_re + (2 * k - 1) * q, p_re + 2 * k * q  # (p + (2k-1)q)(p + 2kq), p = p_re + i p_im
        m_re, done = u * v - p_im * p_im, []
        for t in live:
            t.re_sum += t.re * num // den
            if not real:
                t.im_sum += t.im * num // den
            if low > 0:
                t.err = coeff_abs * t.g_abs * c1 / low
                if unit * t.err < _EM_TARGET:
                    done.append(t)
                    continue
            if real:
                t.re = t.re * (m_re * t.bd_sq) // t.den
            else:
                r, i = m_re * t.bd_sq, p_im * (u + v) * t.bd_sq
                t.re, t.im = (t.re * r - t.im * i) // t.den, (t.re * i + t.im * r) // t.den
            t.g_abs *= c1 * c2 / t.b_sq
        live = [t for t in live if t not in done] if done else live
        if not live:
            break
    out = []
    for t, (head, base_pow, base, frac_bits) in zip(tails, fixed):
        corr = [from_man_exp(x, -frac_bits, prec, _RND) for x in ((t.re_sum,) if real else (t.re_sum, t.im_sum))]
        half = ar.add(head, ar.div_mpf(base_pow, ar.lib.from_int(2), prec, _RND), prec, _RND)
        out.append((ar.add(half, corr[0] if real else tuple(corr), prec, _RND), ar.mul_mpf(base_pow, base, prec, _RND), t.err))
    return out


def _expm1(ar, prec: int, x):
    """mpmath's expm1: exp(x) at prec + 25 bits less 1, again with as many more bits as cancelled while
    10 or more did, rounded to prec (x = 0 or |x| < 2^-prec, its other cases, need |s - 1| < 1e-13)."""
    extra = 10
    while True:
        wp = prec + 15 + extra
        e = ar.exp(x, wp, _RND)
        diff = ar.add_mpf(e, ar.lib.fnone, wp, _RND)
        cancelled = max(_mag(e), 1) - _mag(diff)
        if cancelled < extra:
            return ar.pos(diff, prec, _RND)
        extra += min(wp, cancelled)


def _check_validated_domain(s, caller: str, stacklevel: int = 3) -> None:
    """Warn PrecisionLoss outside the validated domain, naming `caller`, `stacklevel` frames up (the caller's line)."""
    if s.real < _EM_RE_MIN or abs(s.imag) > _EM_IM_MAX:
        warnings.warn(f"{caller}: s={s} outside the validated domain (Re s >= {_EM_RE_MIN}, |Im s| <= "
                      f"{_EM_IM_MAX}); returning best-effort value", PrecisionLoss, stacklevel=stacklevel)


def _l_em(s, kind: str, caller: str) -> EvalResult:
    """L(s, chi) of the row `CHARACTERS[kind]`, conductor q, as q^-s sum_a
    chi(a) zeta(s, a/q) over the a <= q with chi(a) != 0: N head terms
    (`_em_params`, stride q) and base^-s per shift from one table of m^-s over
    the m coprime to q (`_power_table`), as (n + a/q)^-s = q^s (qn + a)^-s, then
    one `_em_sum` call for every shift (a/q a double: exact at q = 1 and 4). The
    principal row (q = 1) adds its pole term lead/(s-1), raises PoleHit within
    1e-13 of s = 1 and bounds max(err, floor); beta's pole parts cancel through
    expm1, so s = 1 is only a 0/0 limit, and it bounds |4^-s| (err1 + err2) +
    floor. The floor is |value|*1e-15 + 1e-16 in Re s >= -25, |Im s| <= 50."""
    row, sc = CHARACTERS[kind], complex(s)
    q = len(row)
    if q == 1 and abs(sc - 1) < 1e-13:
        raise PoleHit(f"s={sc} is within 1e-13 of the pole at s=1")
    _check_validated_domain(sc, caller, stacklevel=4)
    n_cut, dps = _em_params(sc.real, abs(sc.imag), stride=q)
    ratio, ar, prec, smp = _call(s, dps)
    neg, lm, qn = ar.neg(smp, prec, _RND), ar.lib, q * n_cut
    residues = [a for a in range(1, q + 1) if row[a % q]]
    table = _power_table(ar, prec, neg, qn + residues[-1], odd=q % 2 == 0)  # the m coprime to q = 1 or 4
    shifts = [(a / q, ar.sum(table[a:qn + a:q], prec, _RND), table[qn + a]) for a in residues]
    s_1, unit = ar.sub_mpf(smp, lm.fone, prec, _RND), 1.0
    if q > 1:
        q_pow = _powers(ar, prec, neg)(q)
        q_s, unit = ar.mpf_div(lm.fone, q_pow, prec, _RND), lm.to_float(ar.abs(q_pow, prec, _RND), False, _RND)
        shifts = [(a, ar.mul(q_s, head, prec, _RND), ar.mul(q_s, base_pow, prec, _RND)) for a, head, base_pow in shifts]
    (part1, lead1, err1), *others = _em_sum(ar, prec, ratio, smp, n_cut, unit, shifts)
    if q == 1:
        out = ar.complex(ar.add(part1, ar.div(lead1, s_1, prec, _RND), prec, _RND), _RND)
        return EvalResult(out, max(err1, abs(out) * 1e-15 + 1e-16), NUMERIC_ROUTE[kind])
    ((part2, _, err2),) = others
    # b1, b2 = N + a1/q, N + a2/q: [b1^(1-s) - b2^(1-s)]/(s-1) = -b1^(1-s) expm1((1-s) log(b2/b1))/(s-1)
    log_ratio = _ln(qn + residues[1], qn + residues[0], prec)
    if lm.mpf_lt(ar.abs(s_1, prec, _RND), lm.from_float(1e-13)):
        pole = ar.mul_mpf(lead1, log_ratio, prec, _RND)
    else:
        x = ar.mul_mpf(ar.sub(ar.one, smp, prec, _RND), log_ratio, prec, _RND)
        pole = ar.div(ar.mul(ar.neg(lead1, prec, _RND), _expm1(ar, prec, x), prec, _RND), s_1, prec, _RND)
    out = ar.complex(ar.mul(q_pow, ar.add(ar.sub(part1, part2, prec, _RND), pole, prec, _RND), prec, _RND), _RND)
    return EvalResult(out, unit * (err1 + err2) + abs(out) * 1e-15 + 1e-16, NUMERIC_ROUTE[kind])


def zeta_em(s) -> EvalResult:
    """Riemann zeta, the principal row of `CHARACTERS`, by `_l_em`; PoleHit within 1e-13 of s = 1."""
    return _l_em(s, "zeta", "zeta_em")


def dirichlet_beta(s) -> EvalResult:
    """Dirichlet beta, the entire L-function of the character mod 4, by `_l_em`: 4^-s [zeta(s, 1/4) - zeta(s, 3/4)]."""
    return _l_em(s, "beta", "dirichlet_beta")


def recip_gamma(s) -> EvalResult:
    """1/Gamma(s), evaluated as an entire function (never as 1/Gamma-value).

    Exactly zero at nonpositive real integers; this is the annihilation
    mechanism the operator engine relies on. The bound is 1e-12 max(1, |value|):
    absolute 1e-12 where the value has order <= 1, relative 1e-12 elsewhere
    (|s| <= 30)."""
    sc = complex(s)
    if sc.imag == 0.0 and sc.real <= 0 and sc.real == int(sc.real):
        value = complex(0.0)
    else:
        _, ar, prec, x = _call(s, 50)
        value = ar.complex(ar.rgamma(x, prec, _RND), _RND)
    return EvalResult(value, 1e-12 * max(1.0, abs(value)), NUMERIC_ROUTE["recip_gamma"])
