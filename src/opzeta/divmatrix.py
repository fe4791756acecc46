"""Sine-basis matrix of the exponent-1 dilation operator.

In the basis {sqrt(2/pi) sin(n x)} on [0, pi], the operator that sends
sin(n x) to sum_k sin(k n x)/k has matrix entries n/m when n divides m and 0
otherwise: column n of the matrix is the Fourier expansion of the frequency-n
sawtooth. Entries are exact rationals 1/(m/n), computed on demand and never
stored; floats appear only at the quadrature comparison boundary. The matrix
is read as one column in text (the image of basis vector n) and as sorted
triplets, and each column is checked against quadrature.

Every finite truncation is unit lower triangular (hence invertible), while
the operator itself still hits the zeta pole on constants (see
operators.PoleHit); both facts are recorded and tested, not reconciled. The
matrix and its report are NamedTuples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import Iterator, NamedTuple

# rows per block of the divisor sieve and of the printed column
_BLOCK = 1 << 14
# rows m per string of the triplet export
_TRIPLET_ROWS = 1 << 7
# most quadrature panel rows per array pass of consistency_check (a layout with more
# has a pass alone), 128 KB per array of nodes: at 2^10 rows a warm check at size
# 1000, n = 1, faulted in about 21,000 pages a call (2^9: under 1,000), 5% slower
_PANEL_ROWS = 1 << 9


def _divisor_rows(size: int) -> Iterator[list[str]]:
    """str(n) for each divisor n of m, increasing, one list per m = 1..size,
    sieved 2^14 rows at a time: at the size bound, 1/6 of the lists at once."""
    for lo in range(1, size + 1, _BLOCK):
        rows = [[] for _ in range(lo, min(lo + _BLOCK, size + 1))]
        for n in range(1, lo + len(rows)):
            name = str(n)
            for row in rows[-lo % n :: n]:  # the multiples of n in this block
                row.append(name)
        yield from rows


class DivisibilityMatrix(NamedTuple):
    """Exact matrix: entry (m, n) = n/m iff n divides m, 1 <= m, n <= size."""

    size: int

    @property
    def nnz(self) -> int:
        """The number of entries n | m, the count of multiples."""
        return sum(self.size // n for n in range(1, self.size + 1))

    def triplet_rows(self) -> Iterator[str]:
        """Sparse triplet export, 2^7 whole rows m per string (at most 27 KB at the
        size bound): 'm n 1 m/n' for each divisor n of m, increasing; reversed, the
        divisors are the cofactors, the last is m."""
        rows = _divisor_rows(self.size)
        while chunk := list(itertools.islice(rows, _TRIPLET_ROWS)):
            yield "".join([f"{m} {n} 1 {k}\n" for divs in chunk for m in [divs[-1]]
                           for n, k in zip(divs, reversed(divs))])

    def column_blocks(self, n: int) -> Iterator[str]:
        """Column n as 'm num/den' lines, m = 1..size, 2^14 rows per string:
        1/k at m = k n, 0/1 elsewhere."""
        if not 1 <= n <= self.size:
            raise ValueError("need 1 <= n <= size")
        for lo in range(1, self.size + 1, _BLOCK):
            hi = min(lo + _BLOCK, self.size + 1)
            lines = [f"{m} 0/1\n" for m in range(lo, hi)]
            first = -(-lo // n)  # the least k with k n >= lo
            lines[first * n - lo :: n] = [f"{k * n} 1/{k}\n" for k in range(first, (hi - 1) // n + 1)]
            yield "".join(lines)


def build_matrix(M: int) -> DivisibilityMatrix:
    """Exact divisibility matrix of size M; O(1), as entries are computed on demand."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return DivisibilityMatrix(M)


class ConsistencyReport(NamedTuple):
    """Quadrature Fourier coefficients of the frequency-n sawtooth vs column n."""

    n: int
    size: int
    coefficients: tuple[float, ...]
    expected: tuple[Fraction, ...]
    deviations: tuple[float, ...]
    max_abs_deviation: float


@cache
def _gauss_legendre() -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The 32 Gauss-Legendre nodes and weights on [-1, 1] of each quadrature
    panel, computed once."""
    import numpy as np
    return tuple(tuple(a.tolist()) for a in np.polynomial.legendre.leggauss(32))


def consistency_check(n: int, M: int) -> ConsistencyReport:
    """Compare column n of the size-M matrix with the Fourier sine coefficients
    (2/pi) Int_0^pi f(x) sin(m x) dx of f(x) = S(n x mod 2 pi), the sum of the
    frequency-n series, S(y) = pi/2 - y/2 = `exactnum.clausen_closed_form("sin",
    1)` with its coefficients as doubles.

    f jumps at x = 2 pi j / n, so the quadrature is composite Gauss-Legendre
    with panels split at the jumps and refined with the frequency m. m = 1..5
    share one panel layout and so does each pair 2j, 2j + 1. The nodes and
    weighted sawtooth of consecutive layouts are built together, in array passes
    of at most 2^9 panel rows (a larger layout has a pass alone); the m of a
    layout are evaluated together on views of its rows, and each adds its panel
    sums in order, as a scalar loop from 0.0 does: bit-identical to it.
    """
    if n < 1 or M < n:
        raise ValueError("need 1 <= n <= M")
    import numpy as np  # here only: the CLI's cold paths never load it

    from .exactnum import clausen_closed_form

    half_pi, slope = map(float, clausen_closed_form("sin", 1).coeffs)
    xs_gl, ws_gl = map(np.array, _gauss_legendre())
    jumps = [2 * math.pi * j / n for j in range(1, n // 2 + 1) if 2 * math.pi * j / n < math.pi - 1e-12]
    breaks = np.array([0.0] + jumps + [math.pi])
    starts, widths = breaks[:-1], np.diff(breaks)
    layouts = [(per, np.array(list(ms))) for per, ms in itertools.groupby(range(1, M + 1), lambda m: max(4, m // 2 + 2))]
    step = max(1, _PANEL_ROWS // (layouts[-1][0] + len(widths)))  # a layout has at most per + len(widths) panels
    coeffs = []
    for lo in range(0, len(layouts), step):
        per = np.array([p for p, _ in layouts[lo : lo + step]])
        sub = np.maximum(1, np.ceil(per[:, None] * widths / math.pi)).astype(np.int64).ravel()  # panels per layout, interval
        seg = np.repeat(np.tile(np.arange(len(widths)), len(per)), sub)
        i = np.arange(len(seg)) - np.repeat(np.cumsum(sub) - sub, sub)  # panel i of interval seg is [a, b]
        a, b = starts[seg] + widths[seg] * np.stack([i, i + 1]) / np.repeat(sub, sub)
        half = 0.5 * (b - a)
        xq = (0.5 * (a + b))[:, None] + half[:, None] * xs_gl
        weighted = ws_gl * (slope * np.fmod(n * xq, 2 * math.pi) + half_pi)  # n xq > 0: fmod is never negative
        ends = np.cumsum(sub.reshape(len(per), -1).sum(axis=1)).tolist()
        for (_, ms), r0, r1 in zip(layouts[lo : lo + step], [0] + ends, ends):
            t = ms[:, None, None] * xq[r0:r1]  # one temporary per layout: sin and weights in place
            s = np.sum(np.multiply(weighted[r0:r1], np.sin(t, out=t), out=t), axis=-1)
            coeffs += (2.0 / math.pi * np.cumsum(half[r0:r1] * s, axis=-1)[:, -1]).tolist()  # in panel order
        del xq, weighted, t  # this pass's arrays go before the next pass builds its own
    expected = tuple(Fraction(1, m // n) if m % n == 0 else Fraction(0) for m in range(1, M + 1))
    deviations = tuple(abs(c - float(e)) for c, e in zip(coeffs, expected))
    return ConsistencyReport(n, M, tuple(coeffs), expected, deviations, max(deviations))
