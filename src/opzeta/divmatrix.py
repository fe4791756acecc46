"""Sine-basis matrix of the exponent-1 dilation operator.

In the basis {sqrt(2/pi) sin(n x)} on [0, pi], the operator that sends
sin(n x) to sum_k sin(k n x)/k has matrix entries n/m when n divides m and 0
otherwise: column n of the matrix is the Fourier expansion of the frequency-n
sawtooth. Entries are exact rationals so the factorization structure is
bit-exact; floats appear only at the quadrature comparison boundary.

Every finite truncation is unit lower triangular (hence invertible), while
the operator itself still hits the zeta pole on constants (see
operators.PoleHit); both facts are recorded and tested, not reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class DivisibilityMatrix:
    """Sparse exact matrix: entry (m, n) = n/m iff n divides m, 1 <= m, n <= size."""

    size: int
    entries: dict[tuple[int, int], Fraction]

    def entry(self, m: int, n: int) -> Fraction:
        return self.entries.get((m, n), Fraction(0))

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def triplet_lines(self) -> Iterator[str]:
        """Sparse triplet export: one 'm n num den' line per entry, sorted by (m, n)."""
        for (m, n) in sorted(self.entries):
            q = self.entries[(m, n)]
            yield f"{m} {n} {q.numerator} {q.denominator}"


def build_matrix(M: int) -> DivisibilityMatrix:
    """Exact divisibility matrix of size M, built by enumerating multiples
    (cost O(M log M); nnz equals the divisor-count sum over m <= M)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    entries: dict[tuple[int, int], Fraction] = {}
    for n in range(1, M + 1):
        for m in range(n, M + 1, n):
            entries[(m, n)] = Fraction(n, m)
    return DivisibilityMatrix(M, entries)


def matrix_apply(A: DivisibilityMatrix, v: Sequence[Fraction]) -> list[Fraction]:
    """Exact sparse matrix-vector product; v is indexed from basis index 1."""
    if len(v) != A.size:
        raise DimensionMismatch(f"vector length {len(v)} != matrix size {A.size}")
    out = [Fraction(0)] * A.size
    for (m, n), q in A.entries.items():
        vn = v[n - 1]
        if vn:
            out[m - 1] += q * vn
    return out


def _sawtooth(n: int, x: float) -> float:
    """Closed form of sum_k sin(k n x)/k: the dilated ramp (pi - (n x mod 2 pi))/2."""
    y = math.fmod(n * x, 2 * math.pi)
    if y < 0:
        y += 2 * math.pi
    return (math.pi - y) / 2


@dataclass(frozen=True)
class ConsistencyReport:
    """Quadrature Fourier coefficients of the frequency-n sawtooth vs column n."""

    n: int
    size: int
    coefficients: tuple[float, ...]
    expected: tuple[Fraction, ...]
    deviations: tuple[float, ...]
    max_abs_deviation: float


def _gauss_panels(breaks: list[float], min_panels: int) -> Iterator[tuple[float, float]]:
    for a, b in zip(breaks, breaks[1:]):
        width = b - a
        sub = max(1, math.ceil(min_panels * width / math.pi))
        for i in range(sub):
            yield a + width * i / sub, a + width * (i + 1) / sub


def consistency_check(n: int, M: int, gl_nodes: int = 32) -> ConsistencyReport:
    """Compare column n of build_matrix(M) with the Fourier sine coefficients
    (2/pi) Int_0^pi f(x) sin(m x) dx of the Abel-summed frequency-n series.

    The integrand is piecewise smooth with jumps at x = 2 pi j / n, so the
    quadrature is composite Gauss-Legendre with panels split at the jumps and
    refined with the oscillation frequency m.
    """
    if n < 1 or M < n:
        raise ValueError("need 1 <= n <= M")
    A = build_matrix(M)
    xs_gl, ws_gl = np.polynomial.legendre.leggauss(gl_nodes)
    jumps = [2 * math.pi * j / n for j in range(1, n // 2 + 1) if 2 * math.pi * j / n < math.pi - 1e-12]
    breaks = [0.0] + jumps + [math.pi]

    coeffs = []
    expected = []
    deviations = []
    for m in range(1, M + 1):
        total = 0.0
        for a, b in _gauss_panels(breaks, min_panels=max(4, m // 2 + 2)):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            xq = mid + half * xs_gl
            fx = np.array([_sawtooth(n, float(x)) for x in xq])
            total += half * float(np.sum(ws_gl * fx * np.sin(m * xq)))
        bm = 2.0 / math.pi * total
        want = A.entry(m, n)
        coeffs.append(bm)
        expected.append(want)
        deviations.append(abs(bm - float(want)))
    return ConsistencyReport(
        n=n,
        size=M,
        coefficients=tuple(coeffs),
        expected=tuple(expected),
        deviations=tuple(deviations),
        max_abs_deviation=max(deviations),
    )
