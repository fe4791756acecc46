"""Trigonometric series evaluation: convergent partial sums with rigorous
tail bounds, and Abel (Euler) summation for the divergent cases.

A series is sum_n chi(n) trig(n x) / n^s. The trivial character runs over
n = 1, 2, 3, ...; the `beta` character runs over odd n = 2k+1 with sign
(-1)^k. Every convergent series (exponent >= 1) has one kernel,
`partial_sum_accelerated`: a short head plus an iterated summation-by-parts
tail, the beta character by a shift of x by pi/2. Divergent series (exponent
<= 0) are never summed by raw truncation; they take the Abel route: closed
form when the (parity, exponent, character) triple is registered, Richardson
extrapolation of the closed-form Abel means (exponents <= 1) otherwise. At
exponents >= 2 the Abel sum is the sum (Abel's theorem).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

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
    import numpy as np  # here only: the CLI's cold paths never load it

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
    exponent >= 1; a tail level then gains about a factor (exponent + level)/64.
    The tail stops below tol and below the unit roundoff: a level costs
    microseconds, so a loose tol keeps double precision. The bound covers the
    remainder and the float rounding. A remainder above max(tol, unit
    roundoff) (near x = 0 mod 2*pi, where n0 is capped) raises NotConverged.
    The beta character, chi(n) = sin(n pi/2), shifts the trivial C (cos) or S
    (sin) series of the same exponent; cos x = 0 is its endpoint:
      sin: (C(x - pi/2) - C(x + pi/2))/2,  cos: (S(x + pi/2) - S(x - pi/2))/2.
    """
    if series.exponent < 1:
        raise ValueError("accelerated path covers exponents >= 1")
    s = series.exponent
    if series.character == "beta":
        shifted = TrigSeries("cos" if series.parity == "sin" else "sin", s)
        value = bound = 0.0
        for sign, y in ((1.0, x - math.pi / 2), (-1.0, x + math.pi / 2)):
            part, q = partial_sum_accelerated(shifted, y, tol), 2.0 * abs(math.sin(y / 2))
            # y is off by at most u(|x| + 3) (its rounding and pi/2's), times the slope of the
            # shifted sum: at most 1/|1 - e^(iy)| at exponent 1, 2 + |log|1 - e^(iy)|| above
            slope = 1.0 / q if s == 1 else 2.0 + abs(math.log(q))
            value += sign * part.value
            bound += part.abs_error_estimate + _UNIT_ROUNDOFF * (abs(x) + 3.0) * slope
        return SummedValue((0.5 if series.parity == "sin" else -0.5) * value, bound / 2, "partial_sum")
    if abs(math.sin(x / 2)) < 1e-12:
        raise EndpointConditional("x = 0 mod 2*pi")
    q = 2.0 * abs(math.sin(x / 2))  # q = |1 - e^(ix)|
    n0 = int(min(_N0_CAP, math.ceil(_N0_SCALE / q)))
    tail, bound = _sbp_tail(x, n0, s, min(tol, _UNIT_ROUNDOFF))
    if bound > max(tol, _UNIT_ROUNDOFF):
        raise NotConverged(f"tail remainder {bound:.3e} above tol {tol:.3e} at x={x} with n0={n0} head terms")
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
    """Abel sum from the closed-form registry `_ABEL_REGISTRY` (each form
    named after its formula), falling back to `abel_extrapolate` for
    unregistered triples."""
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
        how = "the accelerated sum's tail did not converge" if series.exponent >= 2 else "extrapolation failed"
        raise NoClosedForm(f"no registry closed form for {key} and {how}: {exc}") from exc


def _geometric_rational(exponent: int, character: str) -> tuple[list[int], int]:
    """Numerator coefficients and denominator exponent of the Abel mean at
    integer exponent <= 0.

    Trivial character: sum n^k z^n = P_k(z)/(1-z)^(k+1), P_0 = z,
    P_{k+1} = z[(1-z) P' + (k+1) P]. Beta character: the analogue over
    z/(1+z^2) with Q_{k+1} = z[(1+z^2) Q' - 2(k+1) z Q].
    """
    coeffs = [0, 1]  # the polynomial z
    for j in range(-exponent):
        p = [0] + coeffs + [0, 0]  # p[i + 1] multiplies z^i
        if character == "trivial":  # (1-z) P' + (j+1) P
            inner = [(i + 1) * p[i + 2] + (j + 1 - i) * p[i + 1] for i in range(len(coeffs))]
        else:  # (1+z^2) Q' - 2(j+1) z Q
            inner = [(i + 1) * p[i + 2] + (i - 3 - 2 * j) * p[i] for i in range(len(coeffs) + 1)]
        coeffs = [0] + inner
    return coeffs, 1 - exponent


def _abel_means(exponent: int, character: str, x: float) -> Callable[[float], complex]:
    """r -> sum chi(n) z^n/n^exponent, z = r e^(ix), r < 1, for exponent <= 1:
    the rational form for exponents <= 0, its numerator built once, or
    -log(1 - z) (trivial character) or atan(z) (beta) at exponent 1."""
    unit = cmath.exp(1j * x)
    if exponent == 1:
        if character == "trivial":
            return lambda r: -cmath.log(1.0 - r * unit)
        return lambda r: cmath.atan(r * unit)
    num_coeffs, den_pow = _geometric_rational(exponent, character)
    horner = tuple(reversed(num_coeffs))

    def mean(r: float) -> complex:
        z = r * unit
        num = 0.0 + 0.0j
        for c in horner:
            num = num * z + c
        den = (1.0 - z) if character == "trivial" else (1.0 + z * z)
        return num / den ** den_pow

    return mean


def _abel_mean(exponent: int, character: str, x: float, r: float) -> complex:
    """The Abel mean of `_abel_means` at one r."""
    return _abel_means(exponent, character, x)(r)


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
    """Abel sum of `series` at x.

    Exponents >= 2 converge absolutely, so by Abel's theorem the Abel sum is
    the sum: `partial_sum_accelerated`, which raises EndpointConditional or
    NotConverged where it does; r_grid plays no part there. Exponents <= 1
    evaluate the closed-form Abel means (`_abel_means`) on r_grid and
    Richardson extrapolate them to r = 1 (`_extrapolate_to_one`).
    """
    if series.exponent >= 2:
        return partial_sum_accelerated(series, x)
    part = "imag" if series.parity == "sin" else "real"
    mean = _abel_means(series.exponent, series.character, x)
    limit, correction, vals = _extrapolate_to_one(lambda r: getattr(mean(r), part), r_grid, x, series)
    scale = max(1.0, max(abs(v) for v in vals))
    return SummedValue(limit, correction + 1e-14 * scale, "abel_extrapolated")


def geometric_extrapolate(x: float, r_grid: Sequence[float] | None = None) -> SummedValue:
    """Complex Abel sum of sum e^(i n x) by the same extrapolation route;
    cross-checks `geometric_abel` (real part -1/2, imaginary part the
    exponent-0 sine series)."""
    limit, correction, _ = _extrapolate_to_one(_abel_means(0, "trivial", x), r_grid, x, "the geometric series")
    return SummedValue(limit, correction + 1e-14, "abel_extrapolated")
