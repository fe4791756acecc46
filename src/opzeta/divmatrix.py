"""Sine-basis matrix of the exponent-1 dilation operator.

In the basis {sqrt(2/pi) sin(n x)} on [0, pi], the operator that sends
sin(n x) to sum_k sin(k n x)/k has matrix entries n/m when n divides m and 0
otherwise: column n of the matrix is the Fourier expansion of the frequency-n
sawtooth. Entries are exact rationals 1/(m/n), computed on demand and never
stored; floats appear only where a column is compared with the sawtooth's
sine coefficients. The matrix is read as one column in text (the image of
basis vector n) and as sorted triplets, and each column is checked against
those coefficients, which the sawtooth's jumps give in closed form. The
triplets come by Dirichlet's hyperbola split, each line three shared strings
from a table of the numbers' names, made ten at a time as str(p) joins the
digits of decade p, and each row joined once: at the size bound, 0.19-0.21 s
in process (best of 3, on a 2-vCPU VM) and a child that peaks at 32 MB. The
column makes its lines ten at a time: str(p) joins the ten zero lines 'm 0/1'
of decade p, and the same join gives the ten tails '1/k' of the multiples
m = k n, which go in where the zero text is cut at each multiple's '0/1'.
Lines of one digit width are equally long, so the cuts form one range per
width, and no Python code runs per line: at the size bound, column 1 takes
24-30 ms and column 99991 2.2-2.9 ms in process (best of 5, on a 2-vCPU VM).

Every finite truncation is unit lower triangular (hence invertible), while
the operator itself still hits the zeta pole on constants (see
operators.PoleHit); both facts are recorded and tested, not reconciled. The
matrix and its report are NamedTuples.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, NamedTuple

# rows per block of the triplet export and of the printed column
_BLOCK = 1 << 14
# rows m per string of the triplet export
_TRIPLET_ROWS = 1 << 7
# decade p of the export's names 'n', of the column's zero lines 'm 0/1' and
# of its tails '1/k', each joined by str(p)
_NAME_DECADE = ["", *(f"{d}\n" for d in range(10))]
_ZERO_DECADE = ["", *(f"{d} 0/1\n" for d in range(10))]
_TAIL_DECADE = ["1/", *(f"{d}\n1/" for d in range(9)), "9\n"]


def _decades(first: int, last: int, parts: list[str]) -> str:
    """The decades p = first..last of a run, str(p).join(parts) each, p = 0 joined by '':
    the triplet export's names 'n', and a column's zero lines 'm 0/1' and tails '1/k'."""
    prefixes = itertools.chain([""] * (first == 0), map(str, range(max(first, 1), last + 1)))
    return "".join(map(str.join, prefixes, itertools.repeat(parts)))


def _zero_chars(m: int) -> int:
    """The length of the zero lines 'j 0/1' for j = 0..m - 1: 6 characters each,
    and one more for each power of ten that j reaches."""
    chars, power = 6 * m, 10
    while power < m:
        chars, power = chars + m - power, power * 10
    return chars


class DivisibilityMatrix(NamedTuple):
    """Exact matrix: entry (m, n) = n/m iff n divides m, 1 <= m, n <= size."""

    size: int

    @property
    def nnz(self) -> int:
        """The number of entries n | m, the count of multiples."""
        return sum(self.size // n for n in range(1, self.size + 1))

    def triplet_rows(self) -> Iterator[str]:
        """Sparse triplet export, 2^7 whole rows m per string (at most 27 KB at the
        size bound): 'm n 1 k' for each n k = m, n increasing. By Dirichlet's
        hyperbola split, a block [lo, hi) of 2^14 rows fills in 2 isqrt(hi - 1)
        strided passes, each giving every row it reaches three shared strings: for
        t rising, the columns n = t <= sqrt m, then, for t falling, n = m/t > sqrt m.
        The names 'n', n <= size, are one text of decades split into lines, and each
        string of rows is one join of its rows, each row joined once."""
        names = _decades(0, self.size // 10, _NAME_DECADE).splitlines()[: self.size + 1]
        for lo in range(1, self.size + 1, _BLOCK):
            hi = min(lo + _BLOCK, self.size + 1)
            rows = [[] for _ in range(lo, hi)]
            heads = ["\n" + name + " " for name in names[lo:hi]]

            def fill(t: int, k: int, *strings) -> None:
                # extend the rows m = t k, t (k + 1), ... of the block, one C-level pass
                any(map(list.extend, rows[t * k - lo :: t], zip(heads[t * k - lo :: t], *strings)))

            root = math.isqrt(hi - 1)
            for t in range(1, root + 1):
                k = max(t, -(-lo // t))  # the cofactor k >= t of the first row m = t k >= lo
                fill(t, k, itertools.repeat(names[t] + " 1 "), names[k : (hi - 1) // t + 1])
            for t in range(root, 0, -1):
                k = max(t + 1, -(-lo // t))  # the column k > t of the first row m = k t >= lo
                fill(t, k, names[k : (hi - 1) // t + 1], itertools.repeat(" 1 " + names[t]))
            for i in range(0, hi - lo, _TRIPLET_ROWS):
                yield "".join(map("".join, rows[i : i + _TRIPLET_ROWS]))[1:] + "\n"

    def column_blocks(self, n: int) -> Iterator[str]:
        """Column n as 'm num/den' lines, m = 1..size, 2^14 rows per string:
        1/k at m = k n, 0/1 elsewhere. A block is the text of its zero lines
        'm 0/1', one str(p) and one C-level join per decade p, cut at the '0/1'
        of each multiple of n; the multiples' tails '1/k', made ten at a time
        the same way, go in the cuts, and the partial decades at the block's
        ends are trimmed by offset."""
        if not 1 <= n <= self.size:
            raise ValueError("need 1 <= n <= size")
        for lo in range(1, self.size + 1, _BLOCK):
            hi = min(lo + _BLOCK, self.size + 1)
            zeros = _decades(lo // 10, (hi - 1) // 10, _ZERO_DECADE)
            base = _zero_chars(lo // 10 * 10)  # the characters before the block's first decade
            # the '0/1' of each multiple of n: lines of one width w are w + 5
            # characters long, so these offsets form one range per width
            cuts = []
            for width in range(len(str(lo)), len(str(hi - 1)) + 1):
                start, stop = max(lo, 10 ** (width - 1)), min(hi, 10**width)
                m = -(-start // n) * n  # the least multiple of n >= start
                cuts.append(range(_zero_chars(m) + width + 1 - base, _zero_chars(stop) - base, n * (width + 5)))
            first, last = -(-lo // n), (hi - 1) // n
            tails = _decades(first // 10, last // 10, _TAIL_DECADE).splitlines(True)[first % 10 :][: last - first + 1]
            # the zero text between the cuts, each cut's '0/1\n' left out
            starts = itertools.chain([_zero_chars(lo) - base], *(range(r.start + 4, r.stop + 4, r.step) for r in cuts))
            stops = itertools.chain(*cuts, [_zero_chars(hi) - base])
            parts = [""] * (2 * len(tails) + 1)
            parts[::2] = map(operator.getitem, itertools.repeat(zeros), map(slice, starts, stops))
            parts[1::2] = tails
            yield "".join(parts)


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
    the frequency-n series, S(y) = pi/2 - y/2 = `pipoly.clausen_closed_form(
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
    from .pipoly import clausen_closed_form

    half_pi, slope = map(float, clausen_closed_form("sin", 1).coeffs)
    jump, J, h = -2 * math.pi * slope, (n - 1) // 2, math.pi / n
    left, right = half_pi, half_pi + slope * math.pi * (2 - n % 2)  # f(0+); f(pi-), n pi mod 2 pi taken in (0, 2 pi]

    def cosines(k: int) -> float:
        """sum_(j=1..J) cos(2 pi j k/n) for 0 <= k < n."""
        if k == 0:
            return J
        return math.sin(J * k % (2 * n) * h) * math.cos((J + 1) * k % (2 * n) * h) / math.sin(k * h)

    coeffs = [2 / (math.pi * m) * (left - (-1) ** m * right + jump * cosines(m % n)) for m in range(1, M + 1)]
    # the column as fractions and as doubles: 1/k at m = k n, where int/int rounds
    # once, as float(Fraction(1, k)) does, and one shared 0 elsewhere
    expected, doubles, ks = [Fraction(0)] * M, [0.0] * M, range(1, M // n + 1)
    expected[n - 1 :: n] = map(Fraction, itertools.repeat(1), ks)
    doubles[n - 1 :: n] = map(operator.truediv, itertools.repeat(1), ks)
    deviations = tuple(map(abs, map(operator.sub, coeffs, doubles)))
    return ConsistencyReport(n, M, tuple(coeffs), tuple(expected), deviations, max(deviations))
