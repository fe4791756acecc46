"""Sine-basis matrix of the exponent-1 dilation operator.

In the basis {sqrt(2/pi) sin(n x)} on [0, pi], the operator that sends
sin(n x) to sum_k sin(k n x)/k has matrix entries n/m when n divides m and 0
otherwise: column n of the matrix is the Fourier expansion of the frequency-n
sawtooth. Entries are exact rationals 1/(m/n), computed on demand and never
stored; floats appear only where a column is compared with the sawtooth's
sine coefficients. The matrix is read as one column in text (the image of
basis vector n) and as sorted triplets, and each column is checked against
those coefficients, which the sawtooth's jumps give in closed form.

Every finite truncation is unit lower triangular (hence invertible), while
the operator itself still hits the zeta pole on constants (see
operators.PoleHit); both facts are recorded and tested, not reconciled. The
matrix and its report are NamedTuples.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

# rows per block of the divisor sieve and of the printed column
_BLOCK = 1 << 14
# rows m per string of the triplet export
_TRIPLET_ROWS = 1 << 7


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
    """The sawtooth's Fourier sine coefficients, from its jumps, vs column n."""

    n: int
    size: int
    coefficients: tuple[float, ...]
    expected: tuple[Fraction, ...]
    deviations: tuple[float, ...]
    max_abs_deviation: float


def consistency_check(n: int, M: int) -> ConsistencyReport:
    """Compare column n of the size-M matrix with the Fourier sine coefficients
    b_m = (2/pi) Int_0^pi f(x) sin(m x) dx of f(x) = S(n x mod 2 pi), the sum of
    the frequency-n series, S(y) = pi/2 - y/2 = `exactnum.clausen_closed_form(
    "sin", 1)` with its coefficients as doubles.

    f is linear between jumps of height -2 pi S'(y) = pi at x_j = 2 pi j/n, of
    which J = (n - 1) // 2 lie inside (0, pi). Integrating by parts, the slope
    integrates against cos(m x) to 0, so
      (pi/2) b_m = (f(0+) - (-1)^m f(pi-)) / m + (pi/m) sum_(j=1..J) cos(2 pi j m/n),
    and the Dirichlet kernel gives the cosine sum as
    sin(J h) cos((J + 1) h) / sin(h), h = pi k/n with k = m mod n (J where k = 0);
    each angle is reduced mod 2 pi in integers before its one float product.
    """
    if n < 1 or M < n:
        raise ValueError("need 1 <= n <= M")
    from .exactnum import clausen_closed_form

    half_pi, slope = map(float, clausen_closed_form("sin", 1).coeffs)
    jump, J, h = -2 * math.pi * slope, (n - 1) // 2, math.pi / n
    left, right = half_pi, half_pi + slope * math.pi * (2 - n % 2)  # f(0+); f(pi-), n pi mod 2 pi taken in (0, 2 pi]

    def cosines(k: int) -> float:
        """sum_(j=1..J) cos(2 pi j k/n) for 0 <= k < n."""
        if k == 0:
            return J
        return math.sin(J * k % (2 * n) * h) * math.cos((J + 1) * k % (2 * n) * h) / math.sin(k * h)

    coeffs = [2 / (math.pi * m) * (left - (-1) ** m * right + jump * cosines(m % n)) for m in range(1, M + 1)]
    expected = tuple(Fraction(1, m // n) if m % n == 0 else Fraction(0) for m in range(1, M + 1))
    deviations = tuple(abs(c - float(e)) for c, e in zip(coeffs, expected))
    return ConsistencyReport(n, M, tuple(coeffs), expected, deviations, max(deviations))
