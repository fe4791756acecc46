"""Numeric evaluation of zeta, Dirichlet beta and 1/Gamma.

zeta and beta are the two rows of `exactnum.CHARACTERS`, and one kernel,
`_l_em`, evaluates either row by Euler-Maclaurin. It works at an explicit
precision, prec = dps_to_prec(dps), dps sized to the cancellation headroom of
the argument, and rounds once to a complex double. The head is integers at a
fixed point: one table of m^-s per call at 2^-wp, wp = prec + 8 (`_power_table`),
a fixed-point exp per prime (times a fixed-point cos and sin at a complex s)
by one power rule for every s (`_power`), a shifted product per composite,
each entry within log2(m) 2^(1-wp) max(1, |m^-s|) of m^-s, each head a sum of
a slice of it. The Euler-Maclaurin corrections run in integers too, a loop
over k per shift (`_em_sum`). What stays in mpmath's raw values
(libmp tuples), with the mpf_* or mpc_* operations its operators apply, picked
once from whether s is real (`_arith`), is s itself, the pole term and the
rounding of the sum. A call keeps its state in local values, with no mpmath
context, no lock and no process-global precision: the public functions are
safe for concurrent use and leave mpmath's `mp` alone. Beside immutable tables built once (`_arith`, `_em_coefficients`),
the one shared value is the bounded memo of logarithms `_ln` (mpmath's log m
for the powers, log((4N+3)/(4N+1)) for beta's pole term, each held exactly as
an integer), filled with no lock: threads that race on a key compute the same
value. mpmath is imported on the first numeric call; `zeta_em` raises
`PoleHit`, the one pole error, near s = 1.

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
# Entries of the memo `_ln`: the validated domain reaches at most about 5,000
# keys (143 on the real axis, the rest mostly beta's pole logarithm at complex s).
_LN_MEMO_SIZE = 8192
# `_ln` holds mpmath's log at prec bits exactly, as an integer at 2^-(prec + _LN_EXTRA);
# `_power` reads log m from it at a multiple of _LN_BLOCK bits, shifted down
_LN_EXTRA = 16
_LN_BLOCK = 64
# Fractional bits of the head table beyond the working precision prec
_GUARD = 8
# `_arith`'s operations by their mpmath.libmp names at a complex s; at a real s, the
# mpf one less the mixed-type part of the name (mpc_mul_mpf -> mpf_mul)
_OPS = "mul div sub neg abs pos exp rgamma mul_mpf div_mpf add_mpf sub_mpf".split()
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
    (an `_mpf` form takes a real right operand); sum(xs, prec, rnd), mpmath's
    fsum; complex(x, rnd); 1; and mpmath.libmp."""
    from mpmath import libmp

    ops = [getattr(libmp, "mpf_" + op.replace("_mpf", "") if real else "mpc_" + op) for op in _OPS]
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
def _ln(a: int, b: int, prec: int) -> int:
    """log(a/b) as mpmath's log of the mpf a/b at `prec` bits (each rounded to
    nearest), held as an integer at 2^-(prec + _LN_EXTRA): exactly that
    number where |log(a/b)| >= 2^-_LN_EXTRA. Computed once per (a, b, prec)."""
    from mpmath.libmp import from_int, mpf_div, mpf_log, to_fixed

    return to_fixed(mpf_log(mpf_div(from_int(a), from_int(b), prec, _RND), prec, _RND), prec + _LN_EXTRA)


def _power(ratio, prec: int, top: int):
    """The one power rule at s = (p_re + i p_im)/q (`ratio`): m -> m^-s at an
    integer 2 <= m <= top. With n = floor(-sigma) at sigma < 0, else 0, and
    log m at lp bits, x = -(sigma + n) log m = k log 2 + t, 0 <= t < log 2;
    then m^-s = m^n exp_fixed(t) 2^k, times cos_sin_fixed(-tau log m) at a
    complex s. Where exp_fixed(t) 2^k has a closed form it is taken exactly
    or to the unit, with no exp, as mpmath's power took integer and
    half-integer exponents by squarings and a square root: at an integer
    sigma <= 0, t = 0 and the power is m^n; at sigma + n = -1/2 it is m^n
    isqrt(m) (k = 0), which costs a small part of an exp at the hundreds of
    bits of sigma near -80; at an integer sigma > 0 it is 1/m^sigma floored.
    The power is (re, im, e), m^-s = (re + i im) 2^e, within relative
    2^-(prec+8); with `wp`, each factor is taken to just the bits that a unit
    at 2^-wp needs (None below a unit, its exp never taken). lp = prec + 8 +
    extra: the extra bits are those of (|sigma + n| + |tau|)(1 + log2(top)) +
    4, which bounds the units that log m, log 2 and pi/2 carry into x, t and
    the angle. log m is the memo `_ln`'s at the first multiple of _LN_BLOCK
    bits past lp + 4 (within a unit where m < e^8), shifted down."""
    from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed

    p_re, p_im, q = ratio
    n = max(0, -p_re // q)
    r = p_re + n * q  # sigma + n = r/q
    extra = int((abs(r) + abs(p_im)) / q * (1 + math.log2(top)) + 4).bit_length()
    lp = prec + _GUARD + extra
    ln2, block = ln2_fixed(lp), -(-(lp + 5) // _LN_BLOCK) * _LN_BLOCK
    half = 2 * r == -q  # sigma + n = -1/2: exp(log(m)/2) is sqrt(m), to the unit by isqrt
    recip = q == 1 and p_re > 0  # an integer sigma > 0: m^-sigma is 1/m^sigma, floored

    def power(m: int, wp: int | None = None):
        ln = _ln(m, 1, block) >> block + _LN_EXTRA - lp
        k, t = divmod(-r * ln // q, ln2)
        m_n = m**n
        bits = lp if wp is None else min(lp, wp + k + m_n.bit_length() + extra)  # |m^-s| < 2^(k + 1 + bits(m^n))
        if bits <= extra:
            return None
        cut = lp - bits
        if recip:
            d = m**p_re
            k, x = 1 - d.bit_length(), (1 << bits + d.bit_length() - 1) // d
        elif half:
            k, x = 0, m_n * math.isqrt(m << 2 * bits)
        else:  # exp_fixed(0) would run its series at three times the bits to give exactly 1
            x = m_n * exp_fixed(t >> cut, bits, ln2 >> cut) if t else m_n << bits
        y = 0
        if p_im:
            c, s = cos_sin_fixed(-p_im * ln // q >> cut, bits)
            x, y = x * c >> bits, x * s >> bits
        return x, y, k - bits

    return power


def _power_table(power, wp: int, top: int, odd: bool = False, real: bool = True, full=()) -> tuple:
    """m^-s as integers at 2^-wp for m = 1..top (odd m only if `odd`; None
    elsewhere), by a linear sieve: (the real parts, None, floats) at a real s,
    (the real parts, the imaginary parts, floats) at a complex one. A prime m
    is one power of `power` (`_power`) shifted to 2^-wp; a prime m of `full`
    takes its power at full precision, kept in floats[m]. A composite m = p c,
    p its smallest prime factor, is the product of the entries at c and p
    shifted down by wp. Each entry is within log2(m) 2^(1-wp) max(1, |m^-s|)
    of m^-s: relative 2^-wp or a unit per power, a unit floored per product."""
    re, im, primes, floats = [None] * (top + 1), None if real else [None] * (top + 1), [], {}
    re[1] = 1 << wp
    if im:
        im[1] = 0
    for m in range(2 + odd, top + 1, 1 + odd):
        if re[m] is None:
            x, y, e = power(m, None if m in full else wp) or (0, 0, 0)
            if m in full:
                floats[m] = x, y, e
            sh = e + wp
            re[m] = x << sh if sh >= 0 else x >> -sh
            if im:
                im[m] = y << sh if sh >= 0 else y >> -sh
            primes.append(m)
        for p in primes:
            if m * p > top:
                break
            if im:
                a, b, c, d = re[m], im[m], re[p], im[p]
                re[m * p], im[m * p] = (a * c - b * d) >> wp, (a * d + b * c) >> wp
            else:
                re[m * p] = re[m] * re[p] >> wp
            if m % p == 0:
                break
    return re, im, floats


def _modulus(x: int, y: int, e: int) -> tuple[int, int]:
    """|x + i y| 2^e as (floor |x + i y|, e)."""
    return (math.isqrt(x * x + y * y) if y else abs(x)), e


def _scaled(x: int, e: int, y: int = 1, f: int = 0) -> float:
    """(x 2^e) / (y 2^f) rounded once to a double (int / int rounds correctly)."""
    return (x << e - f) / y if e >= f else x / (y << f - e)


def _em_sum(ar, prec: int, ratio, n_cut: int, unit: float, shifts) -> list:
    """Euler-Maclaurin sum_(n>=0) c (n + a)^-s less its pole term c
    base^(1-s)/(s-1), base = N + a = bn/bd, at s = p/q, p = p_re + i p_im
    (`ratio`), per (a, head, c base^-s, |base^-s|) of `shifts`, c the value
    per unit of the sum (q^-s for a conductor q): head + c base^-s / 2 +
    sum_(k<=K) B_2k/(2k)! g_k, g_k = (s)_(2k-1) c base^(-s-2k+1). head and c
    base^-s are Gaussian integers (x, y, e) = (x + i y) 2^e; |base^-s| is a
    double. Each shift runs its loop over k to its K <= 41, the first whose
    remainder bound |B_2K/(2K)!| |(s)_2K| base^(-sigma-2K+1)/(sigma+2K-1)
    (Johansson, arXiv:1309.2877, theorem 1, M = K) times `unit` (|c|) is below
    _EM_TARGET. The corrections run in Gaussian integers (integers at a real s)
    at 2^-F, F = prec + 16 - mag(c base^-s) - bit_length(int(|s|)): g_1 = p c
    base^-s bd / (q bn) floored once, g_(k+1) = g_k (p + (2k-1)q)(p + 2kq) bd^2
    // (q bn)^2, each term g_k num // den, B_2k/(2k)! = num/den. A unit lost in
    g_j reaches term k scaled by at most 1/12 while the terms fall, as up to K,
    so the sum errs by under 41 (1 + 41/12) < 2^8 units (26 seen on Re s in
    [-80, 12]), below 2^-(prec+5) max(1, |s|) |c base^-s|. Returns (the sum,
    head, half and corrections added exactly and rounded once, and c
    base^(1-s), both raw at prec; the bound in units of the sum) per shift."""
    from_man_exp = ar.lib.from_man_exp
    p_re, p_im, q = ratio
    sc = complex(p_re / q, p_im / q)  # complex(s): int / int rounds once
    (exact, approx), real, size = _em_coefficients(), not p_im, int(abs(sc)).bit_length()
    z, sig = sc.real if real else sc, sc.real  # |z + j| = |s + j|, a double's at a real s
    out = []
    for a, (h_re, h_im, h_e), (x, y, e), base_abs in shifts:
        (a_num, bd), b = a.as_integer_ratio(), n_cut + a  # bd a power of 2, b = float(base)
        bn = n_cut * bd + a_num
        frac_bits = prec + 16 - max(abs(x), abs(y)).bit_length() - e - size
        sh, den = frac_bits + e, q * bn
        g_re, g_im = [(n * bd << sh) // den if sh >= 0 else n * bd // (den << -sh) for n in (p_re * x - p_im * y, p_re * y + p_im * x)]
        step, bd_sq, b_sq = den * den, bd * bd, b * b
        g_abs, err, sum_re, sum_im = abs(sc) * base_abs / b, math.inf, 0, 0
        for k, (num, c_den), coeff_abs in zip(range(1, _EM_K_MAX + 1), exact, approx):
            sum_re += g_re * num // c_den
            if not real:
                sum_im += g_im * num // c_den
            low, c1 = sig + 2 * k - 1, abs(z + 2 * k - 1)
            if low > 0:
                err = coeff_abs * g_abs * c1 / low
                if unit * err < _EM_TARGET:
                    break
            u, v = p_re + (2 * k - 1) * q, p_re + 2 * k * q  # (p + (2k-1)q)(p + 2kq), p = p_re + i p_im
            if real:
                g_re = g_re * (u * v * bd_sq) // step
            else:
                r, i = (u * v - p_im * p_im) * bd_sq, p_im * (u + v) * bd_sq
                g_re, g_im = (g_re * r - g_im * i) // step, (g_re * i + g_im * r) // step
            g_abs *= c1 * abs(z + 2 * k) / b_sq
        top = max(-h_e, 1 - e, frac_bits)  # head + c base^-s / 2 + corrections at 2^-top
        parts = [(h << top + h_e) + (w << top + e - 1) + (c << top - frac_bits)
                 for h, w, c in ((h_re, x, sum_re), (h_im, y, sum_im))[:2 - real]]
        part = tuple(from_man_exp(n, -top, prec, _RND) for n in parts)
        lead = tuple(from_man_exp(w * bn, e + 1 - bd.bit_length(), prec, _RND) for w in (x, y)[:2 - real])
        out.append((part[0], lead[0], err) if real else (part, lead, err))
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
    chi(a) zeta(s, a/q) over the a <= q with chi(a) != 0, each term in units
    of the value, where q^-s (n + a/q)^-s = (qn + a)^-s: N head terms
    (`_em_params`, stride q) per shift, a sum of a slice of one table of m^-s
    at 2^-wp, wp = prec + 8, over the m coprime to q (`_power_table`); then
    one `_em_sum` call for every shift (a/q a double: exact at q = 1 and 4).
    Each shift's (qN + a)^-s keeps prec bits: a prime's power at full
    precision, else the table's entry where it has them (|.| >= 2^-8), else
    one power of `_power`. |q^-s| (1 at q = 1) and |(N + a/q)^-s| enter the
    bounds as doubles rounded once. The principal row (q = 1) adds its pole
    term lead/(s-1), raises PoleHit within 1e-13 of s = 1 and bounds max(err,
    floor); beta's pole parts cancel through expm1, so s = 1 is only a 0/0
    limit, and it bounds |4^-s| (err1 + err2) + floor. The floor is
    |value|*1e-15 + 1e-16 in Re s >= -25, |Im s| <= 50. NotConverged
    (`_em_params`) comes before the PrecisionLoss warning of a point outside
    that domain, which would announce a value that never comes."""
    row, sc = CHARACTERS[kind], complex(s)
    q = len(row)
    if q == 1 and abs(sc - 1) < 1e-13:
        raise PoleHit(f"s={sc} is within 1e-13 of the pole at s=1")
    n_cut, dps = _em_params(sc.real, abs(sc.imag), stride=q)
    _check_validated_domain(sc, caller, stacklevel=4)
    ratio, ar, prec, smp = _call(s, dps)
    qn = q * n_cut
    residues = [a for a in range(1, q + 1) if row[a % q]]
    top = qn + residues[-1]
    wp, power, bases = prec + _GUARD, _power(ratio, prec, top), [qn + a for a in residues]
    re, im, floats = _power_table(power, wp, top, odd=q % 2 == 0, real=not ratio[1], full=bases)
    # |q^-s| = q^-sigma, the value per unit of sum_n (n + a/q)^-s, as (x, e): x 2^e
    q_abs = _modulus(*power(q)) if q > 1 else (1, 0)
    unit, shifts = _scaled(*q_abs), []
    for a, m in zip(residues, bases):
        head = (sum(re[a:m:q]), sum(im[a:m:q]) if im else 0, -wp)
        # base^-s as a prime's power, else from the table if it has prec bits there, else one power
        base_pow = floats.get(m) or (re[m], im[m] if im else 0, -wp)
        if max(abs(base_pow[0]), abs(base_pow[1])).bit_length() < prec:
            base_pow = power(m)
        shifts.append((a / q, head, base_pow, _scaled(*_modulus(*base_pow), *q_abs)))
    s_1 = ar.sub_mpf(smp, ar.lib.fone, prec, _RND)
    (part1, lead1, err1), *others = _em_sum(ar, prec, ratio, n_cut, unit, shifts)
    if q == 1:
        out = ar.complex(ar.sum([part1, ar.div(lead1, s_1, prec, _RND)], prec, _RND), _RND)
        return EvalResult(out, max(err1, abs(out) * 1e-15 + 1e-16), NUMERIC_ROUTE[kind])
    ((part2, _, err2),) = others
    # b1, b2 = N + a1/q, N + a2/q: [b1^(1-s) - b2^(1-s)]/(s-1) = -b1^(1-s) expm1((1-s) log(b2/b1))/(s-1)
    log_ratio = ar.lib.from_man_exp(_ln(qn + residues[1], qn + residues[0], prec), -prec - _LN_EXTRA)
    if ar.lib.mpf_lt(ar.abs(s_1, prec, _RND), ar.lib.from_float(1e-13)):
        pole = ar.mul_mpf(lead1, log_ratio, prec, _RND)
    else:
        x = ar.mul_mpf(ar.sub(ar.one, smp, prec, _RND), log_ratio, prec, _RND)
        pole = ar.div(ar.mul(ar.neg(lead1, prec, _RND), _expm1(ar, prec, x), prec, _RND), s_1, prec, _RND)
    out = ar.complex(ar.sum([part1, ar.neg(part2), pole], prec, _RND), _RND)
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
