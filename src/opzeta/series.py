"""Trigonometric series evaluation: convergent partial sums with rigorous
tail bounds, and Abel (Euler) summation for the divergent cases.

A series is sum_n chi(n) trig(n x) / n^s. The trivial character runs over
n = 1, 2, 3, ...; the `beta` character runs over odd n = 2k+1 with sign
(-1)^k. Both routes compute the trivial character only and take the beta
character as the trivial series at x - pi/2 and x + pi/2. Every convergent
series (exponent >= 1) has one kernel, `partial_sums_accelerated`, over a
whole grid: a short head per point, all heads batched into few numpy
evaluations by `_heads` (raw truncation, `partial_sum`, too), plus an
iterated summation-by-parts tail, all tails in one numpy pass by `_tails`;
`partial_sum_accelerated` is its one-point case. Divergent series (exponent <= 0) are never summed by raw truncation; they take the
Abel route, `abel_value`: at exponents <= 1 the trivial Abel mean is a
closed form in z = r e^(ix), continuous up to |z| = 1 away from z = 1, so
the Abel sum is that form at r = 1. At exponents >= 2 the Abel sum is the
sum (Abel's theorem).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    Diverges,
    EndpointConditional,
    NoClosedForm,
    NotConverged,
    OutsideDomain,
    SingularAtEndpoint,
)

_UNIT_ROUNDOFF = 2.0**-53
_N0_SCALE, _N0_CAP, _SBP_MAX_LEVELS = 64, 400_000, 48
# terms of one numpy evaluation in `_heads`: a batch of heads, and a piece of a longer head
_HEAD_BATCH, _HEAD_PIECE = 1 << 16, 5_000_000
# the head terms one call sums at most: a default verify grid takes about 3.2*10^4, a point
# within about 1.6e-4 of x = 0 mod 2*pi the cap of 4*10^5, and 100 of those took 1.5 s
_HEAD_TERMS_BOUND = 20_000_000


@dataclass(frozen=True)
class TrigSeries:
    """sum_n chi(n) trig(n x) / n^exponent with the stated character."""

    parity: str
    exponent: int
    character: str = "trivial"

    def __post_init__(self):
        if self.parity not in ("sin", "cos"):
            raise ValueError("parity must be 'sin' or 'cos'")
        if self.character not in ("trivial", "beta"):
            raise ValueError("character must be 'trivial' or 'beta'")
        if not isinstance(self.exponent, int):
            raise ValueError("exponent must be an integer")


@dataclass(frozen=True)
class SummedValue:
    """Value with error bound and the method that produced it (audit trail)."""

    value: float
    abs_error_estimate: float
    method: str  # partial_sum | abel_closed_form


def partial_sum(series: TrigSeries, x: float, N: int) -> SummedValue:
    """Sum of the first N terms of a trivial-character series, with a
    rigorous tail bound as the error: N^(1-s)/(s-1) at exponent s >= 2, and
    by summation by parts 1/((N+1) |sin(x/2)|) at exponent 1, where the
    convergence is conditional and x = 0 mod 2*pi is rejected. A beta series
    is summed by `partial_sums_accelerated` only.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if series.character != "trivial":
        raise ValueError("partial_sum sums the trivial character; use partial_sum_accelerated")
    s = series.exponent
    if s <= 0:
        raise Diverges(f"exponent {s} <= 0: raw truncation diverges; use abel_value")
    if s == 1 and abs(math.sin(x / 2)) < 1e-12:
        raise EndpointConditional(f"x = 0 mod 2*pi at x={x}: conditional convergence endpoint")
    bound = N ** (1 - s) / (s - 1) if s >= 2 else 1.0 / ((N + 1) * abs(math.sin(x / 2)))
    return SummedValue(_heads(series.parity, s, [x], [N])[0], bound, "partial_sum")


def _heads(parity: str, s: int, xs: Sequence[float], lengths: Sequence[int]) -> list[float]:
    """sum_(n<=N) trig(n x) / n^s for each x and N of xs and lengths. A head
    is cut into pieces of at most 5*10^6 terms; consecutive pieces of up to
    2^16 terms in all (or one longer piece) take one numpy evaluation, and
    each piece is the pairwise `sum` of its own slice, so a head is the same
    double whichever heads share its batch (`np.add.reduceat` does not sum
    pairwise, and would change it)."""
    import numpy as np  # here only: the CLI's cold paths never load it

    trig = np.sin if parity == "sin" else np.cos
    pieces = [(k, x, start, min(N + 1, start + _HEAD_PIECE) - start)
              for k, (x, N) in enumerate(zip(xs, lengths)) for start in range(1, N + 1, _HEAD_PIECE)]
    sums, i = [0.0] * len(xs), 0
    while i < len(pieces):
        j, size = i + 1, pieces[i][3]
        while j < len(pieces) and size + pieces[j][3] <= _HEAD_BATCH:
            size, j = size + pieces[j][3], j + 1
        heads, xb, starts, counts = zip(*pieces[i:j])
        firsts = np.cumsum(counts) - counts  # each piece's offset in the batch
        n = np.arange(size, dtype=np.float64) + np.repeat(np.subtract(starts, firsts), counts)
        terms = trig(n * np.repeat(xb, counts)) / n**s
        for k, a, c in zip(heads, firsts.tolist(), counts):
            sums[k] += float(terms[a : a + c].sum())
        i = j
    return sums


def _differences(m, s: int):
    """|Delta^j f(m)|, f(n) = n^-s, for j < _SBP_MAX_LEVELS, in floats over an
    array m of integers below 2^53: (-1)^j Delta^j f(m) = c_j h_(s-1)(1/m, ...,
    1/(m+j)), c_j = j!/(m...(m+j)) = c_(j-1) j/(m+j), h_k complete homogeneous
    symmetric; node m+j sets h_k <- h_k + h_(k-1)/(m+j), k = 1..s-1, over
    positive terms. Each step rounds at most twice, so to first order level j
    is off by at most (3j + 2s)u relative: (2j + 1)u in c_j, (j + 2s - 3)u in
    h_(s-1), u in their product."""
    c, h = 1.0, [1.0] + [0.0] * (s - 1)
    for j in range(_SBP_MAX_LEVELS):
        node = m + j
        c = c * max(j, 1) / node
        for k in range(1, s):
            h[k] = h[k] + h[k - 1] / node
        yield c * h[-1]


def _tails(xs: Sequence[float], n0s: Sequence[int], qs: Sequence[float], s: int, target: float):
    """(tails, bounds): sum_{n>n0} z^n f(n), z = e^(ix), f(n) = n^-s, at each
    x, n0 and q = |1 - z| of the grid by iterated summation by parts, in one
    pass of numpy arrays: level j adds w^j z^(n0+1)/(1-z) Delta^j f(n0+1),
    w = z/(1-z). f is completely monotone, so Delta^d f keeps one sign and
    telescopes: after d levels the remainder is at most |w|^d |Delta^(d-1)
    f(n0+1)| (at d = 0, the tail sum of f). A point adds levels while that
    bound shrinks and exceeds target (`live`); no point's arithmetic reads
    another's."""
    import numpy as np

    x, n0 = np.array(xs, dtype=np.float64), np.array(n0s, dtype=np.float64)
    w_abs = 1.0 / np.array(qs, dtype=np.float64)
    w = 1j * np.exp(0.5j * x) / (2.0 * np.sin(x / 2))  # 1 - z = -2i sin(x/2) e^(ix/2)
    term, neg_w = w * np.exp(1j * (n0 * x)), -w  # z^(n0+1)/(1-z), times (-w)^j at level j
    bound = np.full(len(x), math.inf) if s == 1 else n0 ** (1.0 - s) / (s - 1)
    tail, live, w_pow = np.zeros(len(x), dtype=np.complex128), np.ones(len(x), dtype=bool), w_abs
    with np.errstate(over="ignore", invalid="ignore"):  # a stopped point's w^j may overflow
        for delta in _differences(n0 + 1, s):
            level = w_pow * delta
            live &= level < bound
            np.add(tail, term * delta, out=tail, where=live)
            np.copyto(bound, level, where=live)
            live &= level > target
            if not live.any():
                break
            term, w_pow = term * neg_w, w_pow * w_abs
    return tail, bound


def partial_sums_accelerated(series: TrigSeries, xs: Sequence[float], tol: float = 1e-9) -> list[SummedValue]:
    """The sum at every x of xs, for exponent >= 1: a head of n0 = 64/|1-e^(ix)|
    terms (at most 4*10^5) plus a tail by `_tails`; a tail level then gains
    about a factor (exponent + level)/64. The tail stops below tol and below
    the unit roundoff: a level costs microseconds, so a loose tol keeps double
    precision. The bound covers the remainder and the float rounding, the
    float differences' relative error of at most (3j + 2s)u at level j
    included. In order: every endpoint check (the first x = 0 mod 2*pi in grid
    order raises EndpointConditional, naming it) and n0; ValueError if the n0
    add up to more than 2*10^7 head terms, so a grid near x = 0 mod 2*pi is
    refused before its tails; every tail, in one pass of arrays over the grid,
    where the first remainder in grid order above max(tol, unit roundoff)
    (near x = 0 mod 2*pi, where n0 is capped) raises NotConverged; only then
    the heads, by `_heads`. Each value is the double its x gives alone.
    The beta character, chi(n) = sin(n pi/2), shifts the trivial C (cos) or S
    (sin) series of the same exponent; cos x = 0 is its endpoint:
      sin: (C(x - pi/2) - C(x + pi/2))/2,  cos: (S(x + pi/2) - S(x - pi/2))/2,
    all at once: x - pi/2 and x + pi/2 of every x, in grid order, in one call.
    """
    if series.exponent < 1:
        raise ValueError("accelerated path covers exponents >= 1")
    s = series.exponent
    if series.character == "beta":
        shifted = TrigSeries("cos" if series.parity == "sin" else "sin", s)
        ys = [y for x in xs for y in (x - math.pi / 2, x + math.pi / 2)]
        parts = partial_sums_accelerated(shifted, ys, tol)
        out = []
        for k, x in enumerate(xs):
            value = bound = 0.0
            for sign, y, part in zip((1.0, -1.0), ys[2 * k : 2 * k + 2], parts[2 * k : 2 * k + 2]):
                q = 2.0 * abs(math.sin(y / 2))
                # y is off by at most u(|x| + 3) (its rounding and pi/2's), times the slope of the
                # shifted sum: at most 1/|1 - e^(iy)| at exponent 1, 2 + |log|1 - e^(iy)|| above
                slope = 1.0 / q if s == 1 else 2.0 + abs(math.log(q))
                value += sign * part.value
                bound += part.abs_error_estimate + _UNIT_ROUNDOFF * (abs(x) + 3.0) * slope
            out.append(SummedValue((0.5 if series.parity == "sin" else -0.5) * value, bound / 2, "partial_sum"))
        return out
    qs = [2.0 * abs(math.sin(x / 2)) for x in xs]  # q = |1 - e^(ix)|
    if endpoints := [x for x, q in zip(xs, qs) if q < 2e-12]:  # |sin(x/2)| < 1e-12
        raise EndpointConditional(f"x = 0 mod 2*pi at x={endpoints[0]}")
    n0s = [int(min(_N0_CAP, math.ceil(_N0_SCALE / q))) for q in qs]
    if sum(n0s) > _HEAD_TERMS_BOUND:
        raise ValueError(f"the heads of the grid add up to {sum(n0s)} terms, above the bound {_HEAD_TERMS_BOUND}")
    tails, bounds = _tails(xs, n0s, qs, s, min(tol, _UNIT_ROUNDOFF))
    tails, bounds = (tails.imag if series.parity == "sin" else tails.real).tolist(), bounds.tolist()
    for x, n0, bound in zip(xs, n0s, bounds):
        if bound > max(tol, _UNIT_ROUNDOFF):
            raise NotConverged(f"tail remainder {bound:.3e} above tol {tol:.3e} at x={x} with n0={n0} head terms")
    out = []
    for x, q, n0, head, tail, bound in zip(xs, qs, n0s, _heads(series.parity, s, xs, n0s), tails, bounds):
        # rounding: a head term by u*n|x| (in n*x) plus a few u, the pairwise sum by u*log2(n0)
        # per unit of sum n^-s <= log_n0; each tail level (<= (n0+1)^-s / q) by u*n0|x| plus a few u
        # (4 * (n0|x| + 128)), and its difference by (3j + 2s)u at level j (`_differences`)
        log_n0 = 1.0 + math.log(n0)
        tail_size = _SBP_MAX_LEVELS * (n0 + 1.0) ** -s / q
        rounding = _UNIT_ROUNDOFF * (4 * (abs(x) * (n0 if s == 1 else log_n0) + (3 + math.log2(n0)) * log_n0)
                                     + (4 * (n0 * abs(x) + 128) + 3 * _SBP_MAX_LEVELS + 2 * s) * tail_size)
        out.append(SummedValue(head + tail, bound + rounding, "partial_sum"))
    return out


def partial_sum_accelerated(series: TrigSeries, x: float, tol: float = 1e-9) -> SummedValue:
    """`partial_sums_accelerated` at the one point x."""
    return partial_sums_accelerated(series, [x], tol)[0]


def geometric_abel(x: float) -> complex:
    """Abel sum of sum_{n>=1} e^(i n x): the closed form 1/(e^(-ix) - 1).

    Real part is -1/2 for every admissible x; imaginary part is
    sin x / (2(1 - cos x)).
    """
    if abs(math.sin(x / 2)) < 1e-12:
        raise SingularAtEndpoint("x = 0 mod 2*pi")
    return 1.0 / (cmath.exp(-1j * x) - 1.0)


# --- closed-form registry ------------------------------------------------------

def _sin_over_one_minus_cos(x: float) -> float:
    return 0.5 / math.tan(x / 2)  # sin x / (2 (1 - cos x)), with no 1 - cos x to cancel


def _neg_inv_one_minus_cos(x: float) -> float:
    return -1.0 / (4.0 * math.sin(x / 2) ** 2)  # -1 / (2 (1 - cos x))


def _half_sec(x: float) -> float:
    return 1.0 / (2.0 * math.cos(x))


def _log_sec_plus_tan_half(x: float) -> float:
    sn = math.sin(x)  # (1 + sin x)/cos x = cos x/(1 - sin x): no 1 + sin x to cancel
    return math.copysign(0.5 * math.log((1.0 + abs(sn)) / math.cos(x)), sn)


CLOSED_FORMS: dict[str, Callable[[float], float]] = {
    "sin_over_one_minus_cos": _sin_over_one_minus_cos,
    "neg_inv_one_minus_cos": _neg_inv_one_minus_cos,
    "half_sec": _half_sec,
    "log_sec_plus_tan_half": _log_sec_plus_tan_half,
}


def _geometric_rational(exponent: int) -> tuple[list[int], int]:
    """(coefficients of P, p) of the trivial Abel mean at exponent <= 0:
    sum n^k z^n = P_k(z)/(1-z)^(k+1), P_0 = z, P_{k+1} = z[(1-z) P' + (k+1) P].
    The coefficients of P_k are the Eulerian numbers: nonnegative, summing to k!."""
    coeffs = [0, 1]  # the polynomial z
    for j in range(-exponent):
        p = [0] + coeffs + [0]  # p[i + 1] multiplies z^i
        coeffs = [0] + [(i + 1) * p[i + 2] + (j + 1 - i) * p[i + 1] for i in range(len(coeffs))]
    return coeffs, 1 - exponent


def _abel_mean(exponent: int, y: float) -> tuple[complex, float]:
    """(F(e^(iy)), its rounding bound, at least 8u|F|) for the trivial mean
    F(z) = sum z^n / n^exponent at exponent <= 1: -log(1 - z), or P(z)/(1 - z)^p
    from `_geometric_rational`, with 1 - z = -2i sin(y/2) e^(iy/2) factored so
    that no digits cancel near z = 1."""
    q = math.sin(y / 2)
    den = -2j * q * cmath.exp(0.5j * y)
    if exponent == 1:
        value = -cmath.log(den)
        return value, 8 * _UNIT_ROUNDOFF * (4.0 + abs(value))
    coeffs, p = _geometric_rational(exponent)
    z, num = cmath.exp(1j * y), 0j
    for c in reversed(coeffs):
        num = num * z + c
    return num / den**p, 4 * _UNIT_ROUNDOFF * (len(coeffs) + p + 2) * sum(coeffs) / abs(2.0 * q) ** p


def abel_value(series: TrigSeries, x: float) -> SummedValue:
    """Abel sum of `series` at x: the limit r -> 1 of the Abel mean
    sum chi(n) z^n / n^exponent, z = r e^(ix) (its imaginary part for sin,
    real part for cos).

    Exponents >= 2 converge absolutely, so by Abel's theorem the Abel sum is
    the sum: `partial_sum_accelerated`. Below that the trivial mean F is
    continuous on the closed unit disk away from z = 1, so the limit is
    `_abel_mean` at r = 1. The beta character is the trivial mean at x +- pi/2,
    (F(iz) - F(-iz))/(2i) (DLMF 25.12); its bound adds the error of each shifted
    argument, at most u(|x| + 3), times the slope there,
    |F'| = |F_(exponent-1)| <= (1 - exponent)!/|1 - e^(iy)|^(2 - exponent).
    Raises OutsideDomain at |sin(x/2)| <= 1e-9 (trivial) or |cos x| <= 1e-9 (beta).
    """
    key = (series.parity, series.exponent, series.character)
    if series.exponent >= 2:
        try:
            return partial_sum_accelerated(series, x)
        except NotConverged as exc:
            raise NoClosedForm(f"no closed form for {key} and the accelerated sum's tail did not converge: {exc}") from exc
    s, trivial = series.exponent, series.character == "trivial"
    if abs(math.sin(x / 2) if trivial else math.cos(x)) <= 1e-9:
        raise OutsideDomain(f"x={x} is a singular point ({'sin(x/2)' if trivial else 'cos x'} = 0) of the Abel sum of {key}")
    if trivial:
        value, bound = _abel_mean(s, x)
    else:  # the difference's own rounding lies within the 8u|F| of each bound
        ys = x + math.pi / 2, x - math.pi / 2
        (plus, b_plus), (minus, b_minus) = (_abel_mean(s, y) for y in ys)
        slope = sum(math.factorial(1 - s) / abs(2.0 * math.sin(y / 2)) ** (2 - s) for y in ys)
        value, bound = (plus - minus) / 2j, (b_plus + b_minus + _UNIT_ROUNDOFF * (abs(x) + 3.0) * slope) / 2
    return SummedValue(value.imag if series.parity == "sin" else value.real, bound, "abel_closed_form")
