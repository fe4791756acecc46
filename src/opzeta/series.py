"""Trigonometric series evaluation: convergent partial sums with rigorous
tail bounds, and Abel (Euler) summation for the divergent cases.

A series is sum_n chi(n) trig(n x) / n^s. The trivial character runs over
n = 1, 2, 3, ...; the `beta` character runs over odd n = 2k+1 with sign
(-1)^k. Convergent trivial-character series are summed as a short head plus
an iterated summation-by-parts tail. Divergent series (exponent <= 0) are
never summed by raw truncation; they take the Abel route: closed form when
the (parity, exponent, character) triple is registered, Richardson
extrapolation of the Abel means (closed forms up to exponent 1) otherwise.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    Diverges,
    EndpointConditional,
    NoClosedForm,
    NotConverged,
    OutsideDomain,
    SingularAtEndpoint,
)

_DEFAULT_R_GRID = tuple(1.0 - 2.0 ** (-k) for k in range(4, 15))
_RICHARDSON_ORDER = 4
_UNIT_ROUNDOFF = 2.0**-53
_N0_SCALE, _N0_CAP, _SBP_MAX_LEVELS = 64, 400_000, 48


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

    value: complex | float
    abs_error_estimate: float
    method: str  # partial_sum | abel_closed_form | abel_extrapolated


def _tail_bound(series: TrigSeries, x: float, count: int) -> float:
    s = series.exponent
    if series.character == "trivial":
        if s >= 2:
            return count ** (1 - s) / (s - 1)
        # summation-by-parts bound: partial sums of e^(inx) bounded by 1/|sin(x/2)|
        return 1.0 / ((count + 1) * abs(math.sin(x / 2)))
    if s >= 2:
        return (2 * count) ** (1 - s) / (2 * (s - 1))
    return 1.0 / ((2 * count + 1) * abs(math.cos(x)))


def partial_sum(series: TrigSeries, x: float, N: int) -> SummedValue:
    """Sum of the first N terms, with a rigorous tail bound as the error.

    Requires exponent >= 1; for exponent 1 the convergence is conditional and
    the endpoint where the summation-by-parts kernel vanishes is rejected
    (x = 0 mod 2*pi for the trivial character, cos x = 0 for the beta one).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if series.exponent <= 0:
        raise Diverges(
            f"exponent {series.exponent} <= 0: raw truncation diverges; use abel_value"
        )
    if series.exponent == 1:
        if series.character == "trivial" and abs(math.sin(x / 2)) < 1e-12:
            raise EndpointConditional("x = 0 mod 2*pi: conditional convergence endpoint")
        if series.character == "beta" and abs(math.cos(x)) < 1e-12:
            raise EndpointConditional("cos x = 0: conditional convergence endpoint")
    trig = np.sin if series.parity == "sin" else np.cos
    total = 0.0
    for start in range(0, N, 5_000_000):
        k = np.arange(start, min(N, start + 5_000_000), dtype=np.float64)
        n, sign = (k + 1, 1.0) if series.character == "trivial" else (2 * k + 1, (-1.0) ** k)
        total += float(np.sum(sign * trig(n * x) / n**series.exponent))
    return SummedValue(total, _tail_bound(series, x, N), "partial_sum")


def _differences(m: int, s: int) -> Iterator[float]:
    """Delta^j f(m), f(n) = n^-s, for j = 0, 1, ..., each correctly rounded:
    Delta^j f(m) = (-1)^j j! h_{s-1}(1/m, ..., 1/(m+j)) / P_j, P_j = m...(m+j),
    h_k complete homogeneous symmetric. h_k = N_k / P_j^k with integers N_k;
    node m+j sets N_k <- N_k (m+j)^k + N_{k-1} P_{j-1}. One int/int division
    per difference."""
    num = [1] + [0] * (s - 1)
    p_prev = den = fact = 1
    for j in itertools.count():
        node, node_k = m + j, 1
        for k in range(1, s):
            node_k *= node
            num[k] = num[k] * node_k + num[k - 1] * p_prev
        p_prev *= node
        den *= node_k * node
        yield (-1) ** j * (fact * num[-1]) / den
        fact *= j + 1


def _sbp_tail(x: float, n0: int, s: int, target: float) -> tuple[complex, float]:
    """sum_{n>n0} z^n f(n), z = e^(ix), f(n) = n^-s, by iterated summation by
    parts: level j adds w^j z^(n0+1)/(1-z) Delta^j f(n0+1), w = z/(1-z). f is
    completely monotone, so Delta^d f keeps one sign and telescopes: after d
    levels the remainder is at most |w|^d |Delta^(d-1) f(n0+1)| (at d = 0, the
    tail sum of f). Levels are added while that bound shrinks and exceeds
    target. Returns (tail, bound)."""
    w = 1j * cmath.exp(0.5j * x) / (2.0 * math.sin(x / 2))  # 1 - z = -2i sin(x/2) e^(ix/2)
    term = w * cmath.exp(1j * n0 * x)  # z^(n0+1)/(1-z), times w^j at level j
    bound = math.inf if s == 1 else n0 ** (1.0 - s) / (s - 1)
    tail = 0j
    for j, delta in zip(range(_SBP_MAX_LEVELS), _differences(n0 + 1, s)):
        if (level_bound := abs(w) ** (j + 1) * abs(delta)) >= bound:
            break
        tail += term * delta
        term *= w
        bound = level_bound
        if bound <= target:
            break
    return tail, bound


def partial_sum_accelerated(series: TrigSeries, x: float, tol: float = 1e-9) -> SummedValue:
    """Head of n0 = 64/|1-e^(ix)| terms (at most 4*10^5) plus `_sbp_tail`, for
    the trivial character with exponent >= 1; a tail level then gains about a
    factor (exponent + level)/64. The tail stops below tol and below the unit
    roundoff: a level costs microseconds, so a loose tol keeps double
    precision. The bound covers the remainder and the float rounding."""
    if series.character != "trivial" or series.exponent < 1:
        raise ValueError("accelerated path covers the trivial character with exponent >= 1")
    if abs(math.sin(x / 2)) < 1e-12:
        raise EndpointConditional("x = 0 mod 2*pi")
    s, q = series.exponent, 2.0 * abs(math.sin(x / 2))  # q = |1 - e^(ix)|
    n0 = int(min(_N0_CAP, math.ceil(_N0_SCALE / q)))
    tail, bound = _sbp_tail(x, n0, s, min(tol, _UNIT_ROUNDOFF))
    value = partial_sum(series, x, n0).value + (tail.imag if series.parity == "sin" else tail.real)
    # rounding: a head term by u*n|x| (in n*x) plus a few u, the pairwise sum by u*log2(n0)
    # per unit of sum n^-s <= log_n0; each tail level (<= (n0+1)^-s / q) by u*n0|x| plus a few u
    log_n0 = 1.0 + math.log(n0)
    tail_size = _SBP_MAX_LEVELS * (n0 + 1.0) ** -s / q
    rounding = 4 * _UNIT_ROUNDOFF * (
        abs(x) * (n0 if s == 1 else log_n0) + (3 + math.log2(n0)) * log_n0 + (n0 * abs(x) + 128) * tail_size
    )
    return SummedValue(value, bound + rounding, "partial_sum")


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
    return math.sin(x) / (2.0 * (1.0 - math.cos(x)))


def _neg_inv_one_minus_cos(x: float) -> float:
    return -1.0 / (2.0 * (1.0 - math.cos(x)))


def _half_sec(x: float) -> float:
    return 1.0 / (2.0 * math.cos(x))


def _log_sec_plus_tan_half(x: float) -> float:
    return 0.5 * math.log((1.0 + math.sin(x)) / math.cos(x))


def _not_near_multiple_of_two_pi(x: float) -> bool:
    return abs(math.sin(x / 2)) > 1e-9


def _cos_nonzero(x: float) -> bool:
    return abs(math.cos(x)) > 1e-9


def _inside_half_pi(x: float) -> bool:
    return abs(x) < math.pi / 2 - 1e-12


CLOSED_FORMS: dict[str, Callable[[float], float]] = {
    "sin_over_one_minus_cos": _sin_over_one_minus_cos,
    "neg_inv_one_minus_cos": _neg_inv_one_minus_cos,
    "half_sec": _half_sec,
    "log_sec_plus_tan_half": _log_sec_plus_tan_half,
    "zero": lambda x: 0.0,
}

# (parity, exponent, character) -> (closed form, domain predicate, domain text)
_ABEL_REGISTRY: dict[tuple[str, int, str], tuple[Callable[[float], float], Callable[[float], bool], str]] = {
    ("sin", 0, "trivial"): (_sin_over_one_minus_cos, _not_near_multiple_of_two_pi, "x != 0 mod 2*pi"),
    ("cos", -1, "trivial"): (_neg_inv_one_minus_cos, _not_near_multiple_of_two_pi, "x != 0 mod 2*pi"),
    ("sin", 0, "beta"): (lambda x: 0.0, _cos_nonzero, "cos x != 0"),
    ("cos", 0, "beta"): (_half_sec, _cos_nonzero, "cos x != 0"),
    ("sin", 1, "beta"): (_log_sec_plus_tan_half, _inside_half_pi, "|x| < pi/2"),
}


def abel_value(series: TrigSeries, x: float) -> SummedValue:
    """Abel sum from the closed-form registry, falling back to
    `abel_extrapolate` for unregistered triples.

    Registered closed forms:
      (sin, 0, trivial)  -> sin x / (2(1 - cos x))
      (cos, -1, trivial) -> -1 / (2(1 - cos x))
      (sin, 0, beta)     -> 0
      (cos, 0, beta)     -> 1 / (2 cos x)
      (sin, 1, beta)     -> (1/2) log(sec x + tan x)
    """
    key = (series.parity, series.exponent, series.character)
    entry = _ABEL_REGISTRY.get(key)
    if entry is not None:
        fn, domain_ok, domain_text = entry
        if not domain_ok(x):
            raise OutsideDomain(f"x={x} outside the validity domain ({domain_text}) of {key}")
        v = fn(x)
        return SummedValue(v, 4e-16 * (1.0 + abs(v)), "abel_closed_form")
    try:
        return abel_extrapolate(series, x)
    except NotConverged as exc:
        raise NoClosedForm(f"no registry closed form for {key} and extrapolation failed") from exc


def _geometric_rational(exponent: int, character: str) -> tuple[list[int], int]:
    """Numerator coefficients and denominator exponent of the Abel mean at
    integer exponent <= 0.

    Trivial character: sum n^k z^n = P_k(z)/(1-z)^(k+1), P_0 = z,
    P_{k+1} = z[(1-z) P' + (k+1) P]. Beta character: the analogue over
    z/(1+z^2) with Q_{k+1} = z[(1+z^2) Q' - 2(k+1) z Q].
    """
    k = -exponent
    coeffs = [0, 1]  # the polynomial z
    for j in range(k):
        d = [i * c for i, c in enumerate(coeffs)][1:]  # derivative
        if character == "trivial":
            a = d + [0]
            b = [0] + d
            lead = [ai - bi for ai, bi in zip(a, b)]  # (1-z) P'
            extra = [(j + 1) * c for c in coeffs]
        else:
            a = d + [0, 0]
            b = [0, 0] + d
            lead = [ai + bi for ai, bi in zip(a, b)]  # (1+z^2) Q'
            extra = [0] + [-2 * (j + 1) * c for c in coeffs]
        n = max(len(lead), len(extra))
        lead += [0] * (n - len(lead))
        extra += [0] * (n - len(extra))
        coeffs = [0] + [u + v for u, v in zip(lead, extra)]
    return coeffs, k + 1


def _abel_mean(series: TrigSeries, x: float, r: float) -> float:
    """sum chi(n) r^n trig(n x)/n^s at Abel parameter r < 1."""
    z = r * cmath.exp(1j * x)
    s = series.exponent
    if s <= 0:
        num_coeffs, den_pow = _geometric_rational(s, series.character)
        num = 0.0 + 0.0j
        for c in reversed(num_coeffs):
            num = num * z + c
        den = (1.0 - z) if series.character == "trivial" else (1.0 + z * z)
        total = num / den ** den_pow
    elif s == 1:
        total = -cmath.log(1.0 - z) if series.character == "trivial" else cmath.atan(z)
    else:
        # truncated power series; geometric damping makes the cutoff explicit
        count = int(math.ceil((math.log(1e-17) + math.log1p(-r)) / math.log(r))) + 10
        if series.character == "trivial":
            k = np.arange(0, count, dtype=np.float64)
            n, sign = k + 1, 1.0
        else:
            k = np.arange(0, count // 2 + 1, dtype=np.float64)
            n, sign = 2 * k + 1, (-1.0) ** k
        total = complex(np.sum(sign * np.exp(n * (math.log(r) + 1j * x)) / n ** float(s)))
    return total.imag if series.parity == "sin" else total.real


def _richardson_to_zero(h: Sequence[float], vals: Sequence, order: int) -> tuple:
    """Neville extrapolation of vals(h) to h = 0, column depth capped at
    `order`. Returns (limit, |last correction|)."""
    n = len(vals)
    depth = min(order, n - 1)
    t = [list(vals)]  # t[j][i] valid for i >= j
    for j in range(1, depth + 1):
        row: list = [None] * n
        for i in range(j, n):
            row[i] = (h[i - j] * t[j - 1][i] - h[i] * t[j - 1][i - 1]) / (h[i - j] - h[i])
        t.append(row)
    best = t[depth][n - 1]
    prev_best = t[depth - 1][n - 1]
    return best, abs(best - prev_best)


def _extrapolate_to_one(mean: Callable[[float], complex], r_grid: Sequence[float] | None, x: float, what) -> tuple:
    """Evaluate `mean` on r_grid (default 1 - 2^-k, k = 4..14) and Richardson
    extrapolate to r = 1 in h = 1 - r (order 4). Returns (limit, |last
    correction|, means); raises NotConverged, naming x and `what`, past 1e-6
    relative disagreement."""
    if r_grid is None:
        r_grid = _DEFAULT_R_GRID
    r_grid = tuple(float(r) for r in r_grid)
    if len(r_grid) < 4:
        raise ValueError("r_grid needs at least 4 points")
    if any(not 0.0 < r < 1.0 for r in r_grid):
        raise ValueError("r_grid values must lie in (0, 1)")
    if any(b <= a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("r_grid must be strictly increasing")
    vals = [mean(r) for r in r_grid]
    limit, correction = _richardson_to_zero([1.0 - r for r in r_grid], vals, _RICHARDSON_ORDER)
    if correction > 1e-6 * max(1.0, abs(limit)):
        raise NotConverged(f"extrapolants disagree by {correction:.3e} at x={x} for {what}")
    return limit, correction, vals


def abel_extrapolate(series: TrigSeries, x: float, r_grid: Sequence[float] | None = None) -> SummedValue:
    """Richardson-extrapolated Abel sum: evaluate the Abel means on r_grid
    and extrapolate to r = 1 (`_extrapolate_to_one`).

    Integer exponents <= 0 use the exact rational-function form of the means
    (repeated r d/dr of the geometric closed form); exponent 1 uses
    -log(1 - z) (trivial character) or atan(z) (beta), z = r e^(ix); larger
    exponents use damped truncation.
    """
    limit, correction, vals = _extrapolate_to_one(lambda r: _abel_mean(series, x, r), r_grid, x, series)
    scale = max(1.0, max(abs(v) for v in vals))
    return SummedValue(limit, correction + 1e-14 * scale, "abel_extrapolated")


def geometric_extrapolate(x: float, r_grid: Sequence[float] | None = None) -> SummedValue:
    """Complex Abel sum of sum e^(i n x) by the same extrapolation route;
    cross-checks `geometric_abel` (real part -1/2, imaginary part the
    exponent-0 sine series)."""

    def mean(r: float) -> complex:
        z = r * cmath.exp(1j * x)
        return z / (1.0 - z)

    limit, correction, _ = _extrapolate_to_one(mean, r_grid, x, "the geometric series")
    return SummedValue(limit, correction + 1e-14, "abel_extrapolated")
