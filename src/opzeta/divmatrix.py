"""Sine-basis matrix of the exponent-1 dilation operator.

In the basis {sqrt(2/pi) sin(n x)} on [0, pi], the operator that sends
sin(n x) to sum_k sin(k n x)/k has matrix entries n/m when n divides m and 0
otherwise: column n of the matrix is the Fourier expansion of the frequency-n
sawtooth. Entries are exact rationals 1/(m/n), computed on demand and never
stored; floats appear only at the quadrature comparison boundary.

Every finite truncation is unit lower triangular (hence invertible), while
the operator itself still hits the zeta pole on constants (see
operators.PoleHit); both facts are recorded and tested, not reconciled.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DimensionMismatch


@dataclass(frozen=True, eq=False)
class DivisorEntries(Mapping):
    """Read-only mapping (m, n) -> n/m over 1 <= n <= m <= size with n | m,
    computed per lookup; iteration is in sorted (m, n) order."""

    size: int

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        try:  # as in a dict, any key equal to an integer pair (m, n) finds it
            m, n = key
            if (m, n) == (int(m), int(n)) and 1 <= n <= m <= self.size and m % n == 0:
                return Fraction(1, int(m) // int(n))
        except (TypeError, ValueError, OverflowError):  # not a pair of integers
            pass
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        divisors: list[list[int]] = [[] for _ in range(self.size + 1)]
        for n in range(1, self.size + 1):
            for m in range(n, self.size + 1, n):
                divisors[m].append(n)
        return ((m, n) for m in range(1, self.size + 1) for n in divisors[m])

    def __len__(self) -> int:
        return sum(self.size // n for n in range(1, self.size + 1))


@dataclass(frozen=True)
class DivisibilityMatrix:
    """Exact matrix: entry (m, n) = n/m iff n divides m, 1 <= m, n <= size."""

    size: int

    @property
    def entries(self) -> DivisorEntries:
        return DivisorEntries(self.size)

    def entry(self, m: int, n: int) -> Fraction:
        return self.entries.get((m, n), Fraction(0))

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def triplet_lines(self) -> Iterator[str]:
        """Sparse triplet export: one 'm n num den' line per entry, sorted by (m, n)."""
        return (f"{m} {n} 1 {m // n}" for m, n in self.entries)


def build_matrix(M: int) -> DivisibilityMatrix:
    """Exact divisibility matrix of size M; O(1), as entries are computed on demand."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return DivisibilityMatrix(M)


def matrix_apply(A: DivisibilityMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    """Exact matrix-vector product over the support of v; v is indexed from basis index 1."""
    if len(v) != A.size:
        raise DimensionMismatch(f"vector length {len(v)} != matrix size {A.size}")
    out = [Fraction(0)] * A.size
    for n, vn in enumerate(v, start=1):
        if vn:
            for k, m in enumerate(range(n, A.size + 1, n), start=1):
                out[m - 1] += Fraction(1, k) * vn
    return out


@dataclass(frozen=True)
class ConsistencyReport:
    """Quadrature Fourier coefficients of the frequency-n sawtooth vs column n."""

    n: int
    size: int
    coefficients: tuple[float, ...]
    expected: tuple[Fraction, ...]
    deviations: tuple[float, ...]
    max_abs_deviation: float


def consistency_check(n: int, M: int, gl_nodes: int = 32) -> ConsistencyReport:
    """Compare column n of the size-M matrix with the Fourier sine coefficients
    (2/pi) Int_0^pi f(x) sin(m x) dx of f(x) = (pi - (n x mod 2 pi))/2, the
    Abel sum of the frequency-n series.

    f jumps at x = 2 pi j / n, so the quadrature is composite Gauss-Legendre
    with panels split at the jumps and refined with the frequency m; the
    panels of one m form one array, their sums are added in panel order.
    """
    if n < 1 or M < n:
        raise ValueError("need 1 <= n <= M")
    import numpy as np  # here only: the CLI's cold paths never load it

    xs_gl, ws_gl = np.polynomial.legendre.leggauss(gl_nodes)
    jumps = [2 * math.pi * j / n for j in range(1, n // 2 + 1) if 2 * math.pi * j / n < math.pi - 1e-12]
    breaks = np.array([0.0] + jumps + [math.pi])
    starts, widths = breaks[:-1], np.diff(breaks)
    coeffs = []
    for m in range(1, M + 1):
        sub = np.maximum(1, np.ceil(max(4, m // 2 + 2) * widths / math.pi)).astype(np.int64)  # panels per interval
        seg = np.repeat(np.arange(len(sub)), sub)
        i = np.arange(len(seg)) - np.repeat(np.cumsum(sub) - sub, sub)  # panel i of interval seg is [a, b]
        a = starts[seg] + widths[seg] * i / sub[seg]
        b = starts[seg] + widths[seg] * (i + 1) / sub[seg]
        half = 0.5 * (b - a)
        xq = (0.5 * (a + b))[:, None] + half[:, None] * xs_gl
        y = np.fmod(n * xq, 2 * math.pi)
        ramp = (math.pi - np.where(y < 0, y + 2 * math.pi, y)) / 2
        panel_sums = np.sum(ws_gl * ramp * np.sin(m * xq), axis=1)
        total = 0.0
        for h, s in zip(half.tolist(), panel_sums.tolist()):
            total += h * s
        coeffs.append(2.0 / math.pi * total)
    expected = tuple(DivisibilityMatrix(M).entry(m, n) for m in range(1, M + 1))
    deviations = tuple(abs(c - float(e)) for c, e in zip(coeffs, expected))
    return ConsistencyReport(n, M, tuple(coeffs), expected, deviations, max(deviations))
