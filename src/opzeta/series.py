"""Trigonometric series evaluation: convergent sums with rigorous error
bounds, and Abel (Euler) summation for the divergent cases.

A series is sum_n chi(n) trig(n x) / n^s. The trivial character runs over
n = 1, 2, 3, ...; the `beta` character runs over odd n = 2k+1 with sign
(-1)^k. Each route computes the trivial character only, and `_beta` takes
the beta character as the trivial series at x - pi/2 and x + pi/2 through
either route. Both routes sum a whole grid in one call and return one
`exactnum.EvalResult` per point, each the double its x gives alone, its
method partial_sum or abel_closed_form. Every convergent series (exponent
>= 1) has one kernel, `partial_sums_accelerated`: a short head per point,
all heads batched into few numpy evaluations by `_heads`, each batch summed
by one `np.add.reduceat`, plus an iterated summation-by-parts tail, every
tail of the grid by `_tails` in blocks of 16 levels, one 2-D numpy pass a
block; the rest of its per-point work runs in array passes, with sin, log,
log2 and powers as scalar libm calls. Divergent series (exponent <= 0) are
never summed by raw truncation; they take the Abel route, `abel_sums`, which
covers exponents <= 1: there the trivial Abel mean is a closed form in
z = r e^(ix), continuous up to |z| = 1 away from z = 1, so the Abel sum is
that form at r = 1. A point that a route cannot take raises
`OutsideDomain`, naming it. `TrigSeries` is a NamedTuple that checks its
fields in `__new__`, its character against `registry.SERIES_CHARACTERS`.
`verify` holds these sums against the closed forms `registry.CLOSED_FORMS`.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Sequence

from .errors import NotConverged, OutsideDomain
from .exactnum import EvalResult
from .registry import SERIES_CHARACTERS

_UNIT_ROUNDOFF = 2.0**-53
_N0_SCALE, _N0_CAP, _SBP_MAX_LEVELS = 64, 400_000, 48
# terms of one numpy evaluation in `_heads`: whole heads of up to this many terms in all, plus a slot each
_HEAD_BATCH = 1 << 16
# tail levels of one numpy pass in `_tails`: the default grids of the registry stop within one block
_LEVEL_BLOCK = 16
# the head terms one call sums at most: the 10 default sum grids of the registry take 4,230 to
# 4,559 each, a point within about 1.6e-4 of x = 0 mod 2*pi the cap of 4*10^5, and 100 of those
# took 1.5 s
_HEAD_TERMS_BOUND = 20_000_000


class TrigSeries(NamedTuple("TrigSeries", [("parity", str), ("exponent", int), ("character", str)])):
    """sum_n chi(n) trig(n x) / n^exponent with the stated character."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` builds through `__new__`

    def __new__(cls, parity: str, exponent: int, character: str = "trivial"):
        if parity not in ("sin", "cos"):
            raise ValueError("parity must be 'sin' or 'cos'")
        if character not in SERIES_CHARACTERS.values():
            raise ValueError(f"character must be {' or '.join(map(repr, SERIES_CHARACTERS.values()))}")
        if not isinstance(exponent, int):
            raise ValueError("exponent must be an integer")
        return super().__new__(cls, parity, exponent, character)


def _heads(parity: str, s: int, xs: Sequence[float], lengths: Sequence[int]):
    """sum_(n<=N) trig(n x) / n^s for each x and N of xs and lengths, as an
    array. Consecutive heads of up to 2^16 terms in all (or one longer head)
    make a batch, each head's terms behind a slot of its own that holds 0.0,
    and the batch takes one numpy evaluation and one `np.add.reduceat`.
    reduceat sums a segment as its first element plus the pairwise
    `np.add.reduce` of the rest, so a head is 0.0 + the pairwise sum of its
    own terms: the same double whichever heads share its batch."""
    import numpy as np  # here only: the CLI's cold paths never load it

    trig = np.sin if parity == "sin" else np.cos
    x, counts = np.asarray(xs, dtype=np.float64), np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(counts)
    # the batch that starts at head i runs to head fits[i] - 1: the last whose end is in reach
    fits = np.searchsorted(ends, ends - counts + _HEAD_BATCH, side="right").tolist()
    sums, i = np.empty(len(counts)), 0
    while i < len(sums):
        j = max(fits[i], i + 1)
        sizes = counts[i:j] + 1  # each head with its slot in front
        slots = np.cumsum(sizes) - sizes
        n = np.arange(slots[-1] + sizes[-1], dtype=np.float64) - np.repeat(slots, sizes)
        n[slots] = 1.0  # a slot's term is computed as n = 1's, then zeroed
        terms = trig(n * np.repeat(x[i:j], sizes)) / n**s
        terms[slots] = 0.0
        sums[i:j] = np.add.reduceat(terms, slots)
        i = j
    return sums


def _block_differences(m, s: int, j0: int, c, h):
    """(deltas, c, h): |Delta^j f(m)|, f(n) = n^-s, at the levels j of one
    block, j0 <= j < j0 + _LEVEL_BLOCK (and < _SBP_MAX_LEVELS), one row a
    level over an array m of integers below 2^53, from the c and h that the
    block before hands on (c = 1.0 and h = [1.0, 0.0, ...] at j0 = 0), with
    those of its own last level. (-1)^j Delta^j f(m) = c_j h_(s-1)(1/m, ...,
    1/(m+j)), c_j = j!/(m...(m+j)), the running product of max(j, 1)/(m+j)
    (`np.multiply.accumulate`), h_k complete homogeneous symmetric: node m+j
    sets h_k <- h_k + h_(k-1)/(m+j), k = 1..s-1, so h_k is the running sum
    (`np.add.accumulate`) of h_(k-1)/node over positive terms. Each step
    rounds at most twice, so to first order level j is off by at most
    (3j + 2s)u relative: (2j + 1)u in c_j, (j + 2s - 3)u in h_(s-1), u in
    their product."""
    import numpy as np

    j = np.arange(j0, min(j0 + _LEVEL_BLOCK, _SBP_MAX_LEVELS), dtype=np.float64)[:, None]
    node = j + m
    factors = np.maximum(j, 1.0) / node
    factors[0] *= c
    c, row, carried = np.multiply.accumulate(factors, axis=0), 1.0, [1.0]
    for k in range(1, s):
        steps = row / node
        steps[0] += h[k]
        row = np.add.accumulate(steps, axis=0, out=steps)
        carried.append(row[-1])
    return c * row, c[-1], carried


def _tails(xs: Sequence[float], n0s: Sequence[int], qs: Sequence[float], s: int, target: float):
    """(tails, bounds, levels): sum_{n>n0} z^n f(n), z = e^(ix), f(n) = n^-s,
    at each x, n0 and q = |1 - z| of the grid by iterated summation by parts,
    and the number of levels each took: level j adds w^j z^(n0+1)/(1-z)
    Delta^j f(n0+1), w = z/(1-z). f is completely monotone, so Delta^d f keeps
    one sign and telescopes: after d levels the remainder is at most |w|^d
    |Delta^(d-1) f(n0+1)| (at d = 0, the tail sum of f). A point adds levels
    while that bound shrinks and exceeds target. The levels run in blocks of
    _LEVEL_BLOCK, each block over the whole grid in 2-D numpy passes, one row
    a level: the differences by `_block_differences`, |w|^(j+1) and the terms
    by running products, the stop rule as one running AND of "level below the
    previous bound, previous level above target", and the tail as the running
    sum of the terms it keeps, read at each point's last level. A block runs
    only while some point is still adding levels; no point's arithmetic reads
    another's."""
    import numpy as np

    x, n0 = np.array(xs, dtype=np.float64), np.array(n0s, dtype=np.float64)
    w_abs = 1.0 / np.array(qs, dtype=np.float64)
    w = 1j * np.exp(0.5j * x) / (2.0 * np.sin(x / 2))  # 1 - z = -2i sin(x/2) e^(ix/2)
    term, neg_w = w * np.exp(1j * (n0 * x)), -w  # z^(n0+1)/(1-z), times (-w)^j at level j
    bound = np.full(len(x), math.inf) if s == 1 else n0 ** (1.0 - s) / (s - 1)
    tail, levels, points = np.zeros(len(x), dtype=np.complex128), np.zeros(len(x), dtype=np.int64), np.arange(len(x))
    live, c, h, w_pow = np.ones(len(x), dtype=bool), 1.0, [1.0] + [0.0] * (s - 1), 1.0  # w_pow = |w|^j
    with np.errstate(over="ignore", invalid="ignore"):  # a stopped point's w^j may overflow
        for j0 in range(0, _SBP_MAX_LEVELS, _LEVEL_BLOCK):
            deltas, c, h = _block_differences(n0 + 1, s, j0, c, h)
            w_pows = np.empty(deltas.shape)
            w_pows[:], w_pows[0] = w_abs, w_abs * w_pow
            terms = np.empty(deltas.shape, dtype=np.complex128)
            terms[:], terms[0] = neg_w, term
            np.multiply.accumulate(w_pows, axis=0, out=w_pows)
            np.multiply.accumulate(terms, axis=0, out=terms)
            level = w_pows * deltas
            keep = level < np.concatenate(([bound], level[:-1]))
            keep[0] &= live
            keep[1:] &= level[:-1] > target
            np.logical_and.accumulate(keep, axis=0, out=keep)
            kept = np.add.reduce(keep, axis=0, dtype=np.int64)
            last, some = (np.maximum(kept - 1, 0), points), kept > 0
            sums = terms * (deltas * keep)  # past a point's last level, inf * 0 may give nan
            sums[0] += tail
            np.add.accumulate(sums, axis=0, out=sums)
            tail, bound, levels = np.where(some, sums[last], tail), np.where(some, level[last], bound), levels + kept
            live = keep[-1] & (level[-1] > target)
            if not live.any():
                break
            term, w_pow = terms[-1] * neg_w, w_pows[-1]
    return tail, bound, levels


def partial_sums_accelerated(series: TrigSeries, xs: Sequence[float], tol: float = 1e-9) -> list[EvalResult]:
    """The sum at every x of xs, for exponent >= 1: a head of n0 = 64/|1-e^(ix)|
    terms (at most 4*10^5) plus a tail by `_tails`; a tail level then gains
    about a factor (exponent + level)/64. The tail stops below tol and below
    the unit roundoff: a block of levels costs microseconds, so a loose tol
    keeps double precision. The bound covers the remainder and the float
    rounding, the float differences' relative error of at most (3j + 2s)u at
    level j included. In order: every endpoint check (the first x = 0 mod 2*pi in grid
    order raises OutsideDomain, naming it) and n0; ValueError if the n0
    add up to more than 2*10^7 head terms, so a grid near x = 0 mod 2*pi is
    refused before its tails; every tail, in blocks of levels over the grid,
    where the first remainder in grid order above max(tol, unit roundoff)
    (near x = 0 mod 2*pi, where n0 is capped) raises NotConverged; only then
    the heads, by `_heads`. Each value is the double its x gives alone.
    The beta character is `_beta` over this route, all shifts of the grid in
    one call; its endpoint is cos x = 0, and its errors name the caller's x.
    """
    if series.exponent < 1:
        raise ValueError("accelerated path covers exponents >= 1")
    if series.character == "trivial":
        sums = _trivial_sums(series.parity, series.exponent, xs, tol, xs, "x = 0 mod 2*pi")
    else:
        names = [x for x in xs for _ in range(2)]  # the x of each shifted point
        sums = _beta(series, xs, lambda parity, s, ys: _trivial_sums(parity, s, ys, tol, names, "cos x = 0"))
    return [EvalResult(value, bound, "partial_sum") for value, bound in sums]


def _trivial_sums(parity: str, s: int, xs: Sequence[float], tol: float, names: Sequence[float], endpoint: str):
    """(value, bound) of the trivial series at every x of xs, as
    `partial_sums_accelerated` gives them; an error at xs[k] names names[k]
    and, for an endpoint, the condition `endpoint`. Per point, sin, log, log2
    and the power are scalar libm calls (numpy's may differ in the last ulp);
    the rest runs in array passes over the grid."""
    import numpy as np

    q = np.array([2.0 * abs(math.sin(x / 2)) for x in xs])  # q = |1 - e^(ix)|
    if (endpoints := np.flatnonzero(q < 2e-12)).size:  # |sin(x/2)| < 1e-12
        raise OutsideDomain(f"{endpoint} at x={names[endpoints[0]]}")
    n0 = np.minimum(_N0_CAP, np.ceil(_N0_SCALE / q))
    if (total := int(n0.sum())) > _HEAD_TERMS_BOUND:
        raise ValueError(f"the heads of the grid add up to {total} terms, above the bound {_HEAD_TERMS_BOUND}")
    tails, bounds, _ = _tails(xs, n0, q, s, min(tol, _UNIT_ROUNDOFF))
    if (over := np.flatnonzero(bounds > max(tol, _UNIT_ROUNDOFF))).size:
        k = over[0]
        raise NotConverged(f"tail remainder {bounds[k]:.3e} above tol {tol:.3e} at x={names[k]} with n0={int(n0[k])} head terms")
    heads = _heads(parity, s, xs, n0.astype(np.int64))
    # rounding: a head term by u*n|x| (in n*x) plus a few u, the pairwise sum by u*log2(n0)
    # per unit of sum n^-s <= log_n0; each tail level (<= (n0+1)^-s / q) by u*n0|x| plus a few u
    # (4 * (n0|x| + 128)), and its difference by (3j + 2s)u at level j (`_block_differences`)
    x_abs, n0s = np.abs(xs), n0.tolist()
    log_n0 = 1.0 + np.array([math.log(n) for n in n0s])
    log2_n0 = np.array([math.log2(n) for n in n0s])
    tail_size = _SBP_MAX_LEVELS * np.array([(n + 1.0) ** -s for n in n0s]) / q
    rounding = _UNIT_ROUNDOFF * (4 * (x_abs * (n0 if s == 1 else log_n0) + (3 + log2_n0) * log_n0)
                                 + (4 * (n0 * x_abs + 128) + 3 * _SBP_MAX_LEVELS + 2 * s) * tail_size)
    values = heads + (tails.imag if parity == "sin" else tails.real)
    return list(zip(values.tolist(), (bounds + rounding).tolist()))


def _beta(series: TrigSeries, xs: Sequence[float], route: Callable) -> list[tuple[float, float]]:
    """The beta series (chi(n) = sin(n pi/2), DLMF 25.12) at every x of xs from
    the trivial C (cos) or S (sin) series that route(parity, s, ys) sums at
    ys = x - pi/2, x + pi/2 of every x, in grid order:
      sin: (C(x - pi/2) - C(x + pi/2))/2,  cos: (S(x + pi/2) - S(x - pi/2))/2.
    y is off by at most u(|x| + 3) (its rounding and pi/2's), so the bound adds
    that times the slope at y, q = |1 - e^(iy)|: (1 - s)!/q^(2 - s) at s <= 1,
    2 + |log q| above (the two agree at s = 1)."""
    s = series.exponent
    ys = [y for x in xs for y in (x - math.pi / 2, x + math.pi / 2)]
    parts = route("cos" if series.parity == "sin" else "sin", s, ys)
    out = []
    for k, x in enumerate(xs):
        ((minus, b_minus), (plus, b_plus)), slope = parts[2 * k : 2 * k + 2], 0.0
        for y in ys[2 * k : 2 * k + 2]:
            q = 2.0 * abs(math.sin(y / 2))
            slope += math.factorial(1 - s) / q ** (2 - s) if s <= 1 else 2.0 + abs(math.log(q))
        value = minus - plus if series.parity == "sin" else plus - minus
        out.append((value / 2, (b_minus + b_plus + _UNIT_ROUNDOFF * (abs(x) + 3.0) * slope) / 2))
    return out


def geometric_abel(x: float) -> complex:
    """Abel sum of sum_{n>=1} e^(i n x): the closed form 1/(e^(-ix) - 1).

    Real part is -1/2 for every admissible x; imaginary part is
    sin x / (2(1 - cos x)).
    """
    if abs(math.sin(x / 2)) < 1e-12:
        raise OutsideDomain("x = 0 mod 2*pi")
    return 1.0 / (cmath.exp(-1j * x) - 1.0)


def _geometric_rational(exponent: int) -> tuple[list[int], int]:
    """(coefficients of P, p) of the trivial Abel mean at exponent <= 0:
    sum n^k z^n = P_k(z)/(1-z)^(k+1), P_0 = z, P_{k+1} = z[(1-z) P' + (k+1) P].
    The coefficients of P_k are the Eulerian numbers: nonnegative, summing to k!."""
    coeffs = [0, 1]  # the polynomial z
    for j in range(-exponent):
        p = [0] + coeffs + [0]  # p[i + 1] multiplies z^i
        coeffs = [0] + [(i + 1) * p[i + 2] + (j + 1 - i) * p[i + 1] for i in range(len(coeffs))]
    return coeffs, 1 - exponent


def _abel_means(parity: str, s: int, ys: Sequence[float]) -> list[tuple[float, float]]:
    """(value, bound) of the trivial Abel sum at every y of ys, unchecked: the
    imaginary (sin) or real (cos) part of F(e^(iy)) for the mean
    F(z) = sum z^n / n^exponent at exponent <= 1, -log(1 - z) or P(z)/(1 - z)^p
    from `_geometric_rational`, with 1 - z = -2i sin(y/2) e^(iy/2) factored so
    that no digits cancel near z = 1. The bound is the rounding, at least 8u|F|."""
    out = []
    coeffs, p = _geometric_rational(s) if s < 1 else ([], 0)
    for y in ys:
        q = math.sin(y / 2)
        den = -2j * q * cmath.exp(0.5j * y)
        if s == 1:
            value = -cmath.log(den)
            bound = 8 * _UNIT_ROUNDOFF * (4.0 + abs(value))
        else:
            z, num = cmath.exp(1j * y), 0j
            for c in reversed(coeffs):
                num = num * z + c
            value, bound = num / den**p, 4 * _UNIT_ROUNDOFF * (len(coeffs) + p + 2) * sum(coeffs) / abs(2.0 * q) ** p
        out.append((value.imag if parity == "sin" else value.real, bound))
    return out


def abel_sums(series: TrigSeries, xs: Sequence[float]) -> list[EvalResult]:
    """The Abel sum of `series` at every x of xs, at exponent <= 1: the limit
    r -> 1 of the Abel mean sum chi(n) z^n / n^exponent, z = r e^(ix) (its
    imaginary part for sin, real part for cos). The trivial mean F is
    continuous on the closed unit disk away from z = 1, so the limit is
    `_abel_means` at r = 1, over the whole grid; the beta character is `_beta`
    over it, (F(iz) - F(-iz))/(2i). Every point is checked first: the first x
    in grid order with |sin(x/2)| <= 1e-9 (trivial) or |cos x| <= 1e-9 (beta)
    raises OutsideDomain, naming it. Exponents >= 2 raise ValueError: they
    converge, so their Abel sum is the sum (Abel's theorem),
    `partial_sums_accelerated`. Each value is the double its x gives alone.
    """
    if series.exponent >= 2:
        raise ValueError(f"exponent {series.exponent} >= 2 converges; use partial_sums_accelerated")
    trivial = series.character == "trivial"
    if singular := [x for x in xs if abs(math.sin(x / 2) if trivial else math.cos(x)) <= 1e-9]:
        zero = "sin(x/2)" if trivial else "cos x"
        raise OutsideDomain(f"x={singular[0]} is a singular point ({zero} = 0) of the Abel sum of {tuple(series)}")
    sums = _abel_means(series.parity, series.exponent, xs) if trivial else _beta(series, xs, _abel_means)
    return [EvalResult(value, bound, "abel_closed_form") for value, bound in sums]
