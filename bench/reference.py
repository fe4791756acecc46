"""Reference values the benchmark checks opzeta's output against.

Nothing here calls opzeta. Exact values come from the benchmark's own
integer arithmetic: the Seidel-Entringer boustrophedon gives the zigzag
numbers A_n (sec x + tan x = sum A_n x^n / n!), from which both the Euler
numbers (secant side) and the Bernoulli numbers (tangent side) follow.
That is a different algorithm from opzeta's binomial recurrences.
Numeric values come from mpmath, a declared dependency, at 40 digits.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import mpmath

REF_DPS = 40


class ExactTables:
    """Bernoulli numbers (B_1 = -1/2) and Euler numbers up to index n_max."""

    def __init__(self, n_max: int):
        zigzag = [1]
        row = [1]
        for n in range(1, n_max + 1):
            new = [0] * (n + 1)
            for k in range(1, n + 1):
                new[k] = new[k - 1] + row[n - k]
            row = new
            zigzag.append(row[n])
        self.n_max = n_max
        self.euler = [0 if n % 2 else (-1) ** (n // 2) * zigzag[n] for n in range(n_max + 1)]
        bern = [Fraction(0)] * (n_max + 1)
        bern[0] = Fraction(1)
        if n_max >= 1:
            bern[1] = Fraction(-1, 2)
        for n in range(2, n_max + 1, 2):
            m = n // 2
            bern[n] = Fraction((-1) ** (m - 1) * n * zigzag[n - 1], 4 ** m * (4 ** m - 1))
        self.bernoulli = bern

    def zeta_exact(self, k: int):
        """('pole', None) at 1, ('exact', Fraction) at k <= 0,
        ('pi', (q, k)) for zeta(k) = q pi^k at even k >= 2, else None."""
        if k == 1:
            return "pole", None
        if k == 0:
            return "exact", Fraction(-1, 2)
        if k < 0:
            n = -k
            return "exact", -self.bernoulli[n + 1] / (n + 1)
        if k % 2 == 0:
            m = k // 2
            q = Fraction((-1) ** (m + 1) * 2 ** k, 2 * factorial(k)) * self.bernoulli[k]
            return "pi", (q, k)
        return None

    def beta_exact(self, k: int):
        """('exact', Fraction) at k <= 0, ('pi', (q, k)) at odd k >= 1, else None."""
        if k <= 0:
            n = -k
            return "exact", Fraction(0) if n % 2 else Fraction(self.euler[n], 2)
        if k % 2 == 1:
            m = (k - 1) // 2
            q = Fraction((-1) ** m * self.euler[2 * m], 4 ** (m + 1) * factorial(2 * m))
            return "pi", (q, k)
        return None


def pi_term(q: Fraction, k: int) -> str:
    """The text opzeta prints for the single term q * pi^k."""
    if q == 0:
        return "0"
    if k == 0:
        return str(q)
    if k == 1:
        return f"{q}*pi"
    return f"{q}*pi^{k}"


def pi_term_value(q: Fraction, k: int) -> float:
    with mpmath.workdps(REF_DPS):
        return float(mpmath.mpf(q.numerator) / q.denominator * mpmath.pi ** k)


def zeta_value(s: float) -> float:
    with mpmath.workdps(REF_DPS):
        return float(mpmath.zeta(mpmath.mpf(s)))


def beta_value(s: float) -> float:
    """Dirichlet beta, the L-function of the nontrivial character mod 4."""
    with mpmath.workdps(REF_DPS):
        return float(mpmath.dirichlet(mpmath.mpf(s), [0, 1, 0, -1]))


def akiyama_tanigawa(n_max: int) -> list[Fraction]:
    """Bernoulli numbers B_0..B_n_max (B_1 = -1/2) by the Akiyama-Tanigawa
    transform; a second, independent route used to test ExactTables."""
    out = []
    a = []
    for m in range(n_max + 1):
        a.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if n_max >= 1:
        out[1] = -out[1]
    return out
