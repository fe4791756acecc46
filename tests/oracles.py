"""Independent oracles for the test suite.

Everything here is deliberately computed by a different route than the
package code it checks: Akiyama-Tanigawa instead of the binomial recurrence,
power-series long division instead of coefficient recurrences, Euler
transformation of alternating partial sums instead of Hurwitz differences,
Bernoulli and Euler numbers instead of the zigzag triangle.
The `*_mpf`/`*_mpmath` functions are the mpmath routes that package code
took before it computed in integers, and `partial_sum_accelerated_per_point`
the per-point route of the accelerated sum, with exact differences, before it
took a grid in one pass with float differences. `partial_sums_per_point_loops`
is the grid kernel as it was before its per-point Python loops became array
passes: `heads_by_piece` and `trivial_sums_by_point`, the same arithmetic in
the same order, so the kernel must match it bit for bit. `taylor_flow_per_degree` and
`extract_special_values_per_degree` are the per-degree loops of the operator
engine's flow and extraction, before both read their Taylor terms and
operator values through `apply_operator`; the flow's branch term comes from
the Clausen closed forms and from differentiating the series, not from the
Mellin residue. `partial_sum` and
`beta_partial_sum` sum by raw truncation, which no package route does.
`scalar_quadrature` integrates the frequency-n sawtooth against sin(m x) by
composite Gauss-Legendre, panels split at its jumps, where `divmatrix`
reads the same coefficients off the jumps in closed form.
`small_numbers_fraction` is the Fraction recurrence the exact table of
Bernoulli and Euler numbers took before it ran in integers; `powers_context`,
`powers_pow` and `power_table_context` are the mpmath powers and the table of
m^-s of `specfun` before its table ran in integers, and `ln_mpmath` the
logarithm its memo holds. `zeta_em_context`, `dirichlet_beta_context` and
`recip_gamma_context` are `specfun`'s kernels on mpmath numbers in a
per-thread mpmath context (`_working_precision`, `_mp_of`) in place of raw
values at an explicit precision, with a loop of integer corrections per shift
of their own; the Euler-Maclaurin pair reads its table of m^-s through the
module, so the raw kernels must match them bit for bit, or, given `powers`,
builds the old mpmath table, where the doubles must match.

Some references left the package because no command reaches them; the tests
still compare the package against them:

- `hurwitz_zeta(s, a)`, the Euler-Maclaurin route of `specfun` at any shift
  0 < a <= 1, with one mpmath power per head term where `zeta_em` sums a
  slice of its integer table of m^-s. It calls `specfun._em_sum` through the module
  at call time, so a test that replaces that core reaches this route too.
- `hankel_zeta` and `lerch_hankel`, a second continuation of zeta and of the
  Abel-regularised sum of e^(inx) n^-s, by a Hankel loop integral. `t^(s-1)`
  on the contour takes the principal branch, cut along the negative real axis,
  with the rays at angle +/-(pi - delta).
- `functional_equation_residual`, the functional equation of zeta checked with
  every factor numeric.
- `matrix_apply`, the exact product of the divisibility matrix with a vector
  over the vector's support, against which `column_blocks` is checked.

A contour radius that would enclose a kernel pole, or a vector of the wrong
length, raises `ValueError`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import threading
import warnings
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from fractions import Fraction
from math import comb, factorial

from opzeta import specfun
from opzeta.errors import NotConverged, OutsideDomain, PoleHit, PrecisionLoss, UnsupportedExpression
from opzeta.exactnum import (
    EvalResult,
    PiPolynomial,
    PiXPolynomial,
    bernoulli_number,
    clausen_closed_form,
    euler_number,
    special_value,
)
from opzeta.operators import DilationShift, Expression, ExtractedValue, SingularTerm, TaylorFlowResult
from opzeta.series import (
    _N0_CAP,
    _N0_SCALE,
    _SBP_MAX_LEVELS,
    _UNIT_ROUNDOFF,
    TrigSeries,
    _beta,
    _tails,
)
from opzeta.specfun import (
    _EM_K_MAX,
    _EM_TARGET,
    _check_validated_domain,
    _em_coefficients,
    _em_params,
    _ratio,
    zeta_em,
)

_TWO_PI = 2 * math.pi
_THREAD = threading.local()


@contextmanager
def _working_precision(dps: int):
    """Yield the calling thread's own mpmath context (built once per thread)
    at `dps` digits; on exit, nested or not, the previous precision returns."""
    ctx = getattr(_THREAD, "ctx", None)
    if ctx is None:
        import mpmath

        ctx = _THREAD.ctx = mpmath.MPContext()
    prec = ctx.prec
    ctx.dps = dps
    try:
        yield ctx
    finally:
        ctx.prec = prec


def _mp_of(ctx, ratio):
    """s = `_ratio(s)` in ctx: an mpf when s is real (float, int, Fraction), an mpc otherwise."""
    p_re, p_im, q = ratio
    return (ctx.mpc(p_re, p_im) if p_im else ctx.mpf(p_re)) / q


def _raw(x):
    """The raw libmp value of an mpmath number: an mpf tuple or an mpc pair."""
    return getattr(x, "_mpf_", None) or x._mpc_


def _number(ctx, raw):
    """The mpmath number of ctx holding a raw mpf tuple or mpc pair."""
    return ctx.make_mpc(raw) if len(raw) == 2 else ctx.make_mpf(raw)


def bernoulli_akiyama_tanigawa(nmax: int) -> list[Fraction]:
    """B_0..B_nmax by the Akiyama-Tanigawa triangle.

    The triangle natively produces the B_1 = +1/2 convention; the sign is
    flipped at index 1 to land on the package's B_1 = -1/2 convention (all
    other indices agree between the conventions).
    """
    row = [Fraction(0)] * (nmax + 1)
    out: list[Fraction] = []
    for m in range(nmax + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if nmax >= 1:
        out[1] = -out[1]
    return out


def small_numbers_fraction(nmax: int) -> tuple[list[Fraction], list[int]]:
    """B_0..B_nmax and E_0..E_nmax by the binomial recurrences in Fractions:
    sum_(j<m) C(m+1, j) B_j = -(m+1) B_m and E_2m = -sum_(j<m) C(2m, 2j) E_2j."""
    bern, euler = [Fraction(1), Fraction(-1, 2)], [1, 0]
    for m in range(2, nmax + 1):
        if m % 2:
            bern.append(Fraction(0))
            euler.append(0)
            continue
        bern.append(-sum(comb(m + 1, j) * b for j, b in enumerate(bern) if b) / (m + 1))
        euler.append(-sum(comb(m, j) * euler[j] for j in range(0, m, 2)))
    return bern[: nmax + 1], euler[: nmax + 1]


def series_reciprocal(den: list[Fraction], nterms: int) -> list[Fraction]:
    """Coefficients of 1 / sum(den[j] x^j) up to x^(nterms-1); den[0] != 0."""
    out = [Fraction(0)] * nterms
    out[0] = 1 / den[0]
    for n in range(1, nterms):
        acc = Fraction(0)
        for m in range(n):
            if n - m < len(den):
                acc += den[n - m] * out[m]
        out[n] = -acc / den[0]
    return out


def bernoulli_from_generating_function(nmax: int) -> list[Fraction]:
    """B_k = k! [x^k] x/(e^x - 1), by exact long division of power series."""
    den = [Fraction(1, factorial(j + 1)) for j in range(nmax + 2)]  # (e^x - 1)/x
    g = series_reciprocal(den, nmax + 1)
    return [g[k] * factorial(k) for k in range(nmax + 1)]


def euler_from_generating_function(nmax: int) -> list[int]:
    """E_k = k! [t^k] 2/(e^t + e^-t), by exact long division against cosh."""
    den = [Fraction(1, factorial(j)) if j % 2 == 0 else Fraction(0) for j in range(nmax + 2)]
    g = series_reciprocal(den, nmax + 1)
    vals = [g[k] * factorial(k) for k in range(nmax + 1)]
    assert all(v.denominator == 1 for v in vals)
    return [int(v) for v in vals]


# The exact Taylor generators by their Bernoulli and Euler number formulas:
# the route `registry.TAYLOR_GENERATORS` took before the zigzag triangle.

def cot_half_regular_bernoulli(terms: int) -> PiXPolynomial:
    """sin x / (2(1 - cos x)) - 1/x = sum_(k>=1) (-1)^k B_2k x^(2k-1) / (2k)!."""
    coeffs = [Fraction(0)] * (2 * terms)
    for k in range(1, terms + 1):
        coeffs[2 * k - 1] = Fraction((-1) ** k) * bernoulli_number(2 * k) / factorial(2 * k)
    return PiXPolynomial(coeffs)


def inv_one_minus_cos_regular_bernoulli(terms: int) -> PiXPolynomial:
    """-1/(2(1 - cos x)) + 1/x^2: coefficient of x^(2k-2) is (-1)^k B_2k (2k-1) / (2k)!."""
    coeffs = [Fraction(0)] * (2 * terms - 1)
    for k in range(1, terms + 1):
        coeffs[2 * k - 2] = Fraction((-1) ** k) * bernoulli_number(2 * k) * (2 * k - 1) / factorial(2 * k)
    return PiXPolynomial(coeffs)


def half_sec_series_euler(terms: int) -> PiXPolynomial:
    """1/(2 cos x): coefficient of x^(2n) is |E_2n| / (2 (2n)!)."""
    coeffs = [Fraction(0)] * (2 * terms - 1)
    for n in range(terms):
        coeffs[2 * n] = Fraction(abs(euler_number(2 * n)), 2 * factorial(2 * n))
    return PiXPolynomial(coeffs)


def log_sec_plus_tan_half_series_euler(terms: int) -> PiXPolynomial:
    """(1/2) log(sec x + tan x): coefficient of x^(2n+1) is |E_2n| / (2 (2n+1)!)."""
    coeffs = [Fraction(0)] * (2 * terms)
    for n in range(terms):
        coeffs[2 * n + 1] = Fraction(abs(euler_number(2 * n)), 2 * factorial(2 * n + 1))
    return PiXPolynomial(coeffs)


TAYLOR_BY_NUMBERS = {
    "cot_half_regular": cot_half_regular_bernoulli,
    "inv_one_minus_cos_regular": inv_one_minus_cos_regular_bernoulli,
    "half_sec_series": half_sec_series_euler,
    "log_sec_plus_tan_half_series": log_sec_plus_tan_half_series_euler,
}


def bernoulli_poly_coeffs(m: int) -> list[Fraction]:
    """Coefficients (lowest degree first) of B_m(x) = sum_k C(m,k) B_k x^(m-k)."""
    bern = bernoulli_akiyama_tanigawa(m)
    if m >= 1:
        bern[1] = Fraction(-1, 2)
    out = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        out[m - k] += comb(m, k) * bern[k]
    return out


def euler_summed_alternating(term, n: int = 200, rounds: int = 60) -> float:
    """Euler summation of sum_{k>=0} (-1)^k term(k): iterated averaging of
    the partial sums (each averaging round is one Euler transform step)."""
    partial = []
    acc = 0.0
    for k in range(n):
        acc += (-1) ** k * term(k)
        partial.append(acc)
    s = partial[-(rounds + 1):]
    while len(s) > 1:
        s = [(a + b) / 2 for a, b in zip(s, s[1:])]
    return s[0]


def divisor_count(m: int) -> int:
    return sum(1 for d in range(1, m + 1) if m % d == 0)


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def matrix_apply(A, v) -> list[Fraction]:
    """Exact product of the divisibility matrix A with v over the support of
    v; v is indexed from basis index 1."""
    if len(v) != A.size:
        raise ValueError(f"vector length {len(v)} != matrix size {A.size}")
    out = [Fraction(0)] * A.size
    for n, vn in enumerate(v, start=1):
        if vn:
            for k, m in enumerate(range(n, A.size + 1, n), start=1):
                out[m - 1] += Fraction(1, k) * vn
    return out


def scalar_quadrature(n: int, m: int) -> float:
    """The reference loop for coefficient m of the frequency-n sawtooth: panels
    generated one at a time, the sawtooth evaluated per node, panel sums added
    in order from 0.0."""
    import numpy as np

    xs_gl, ws_gl = np.polynomial.legendre.leggauss(32)
    jumps = [2 * math.pi * j / n for j in range(1, n // 2 + 1) if 2 * math.pi * j / n < math.pi - 1e-12]
    breaks = [0.0] + jumps + [math.pi]

    def sawtooth(x):
        y = math.fmod(n * x, 2 * math.pi)
        if y < 0:
            y += 2 * math.pi
        return (math.pi - y) / 2

    total = 0.0
    for a0, b0 in zip(breaks, breaks[1:]):
        width = b0 - a0
        sub = max(1, math.ceil(max(4, m // 2 + 2) * width / math.pi))
        for i in range(sub):
            a, b = a0 + width * i / sub, a0 + width * (i + 1) / sub
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            xq = mid + half * xs_gl
            fx = np.array([sawtooth(float(x)) for x in xq])
            total += half * float(np.sum(ws_gl * fx * np.sin(m * xq)))
    return 2.0 / math.pi * total


def partial_sum(parity: str, s: int, x: float, N: int) -> tuple[float, float]:
    """Raw truncation of the trivial-character series sum_n trig(n x) / n^s
    after N terms, summed in doubles, and its tail bound: N^(1-s)/(s-1) at
    s >= 2, 1/((N+1) |sin(x/2)|) by summation by parts at s = 1, where the
    convergence is conditional and x = 0 mod 2*pi is rejected (once
    `series.partial_sum`, which no command called)."""
    import numpy as np

    if s < 1:
        raise ValueError(f"exponent {s} <= 0: raw truncation diverges")
    if s == 1 and abs(math.sin(x / 2)) < 1e-12:
        raise OutsideDomain(f"x = 0 mod 2*pi at x={x}: conditional convergence endpoint")
    n = np.arange(1, N + 1, dtype=np.float64)
    value = float(np.sum((np.sin if parity == "sin" else np.cos)(n * x) / n**s))
    return value, N ** (1 - s) / (s - 1) if s >= 2 else 1.0 / ((N + 1) * abs(math.sin(x / 2)))


def beta_partial_sum(parity: str, s: int, x: float, N: int) -> tuple[float, float]:
    """Raw truncation of the beta-character series sum_k (-1)^k
    trig((2k+1) x) / (2k+1)^s after N terms, summed in doubles, and its tail
    bound: (2N)^(1-s)/(2(s-1)) at s >= 2, 1/((2N+1) |cos x|) by summation by
    parts at s = 1 (the route `series.partial_sum` took for this character
    before the accelerated sum took it by a shift)."""
    import numpy as np

    k = np.arange(N, dtype=np.float64)
    n = 2 * k + 1
    trig = np.sin if parity == "sin" else np.cos
    value = float(np.sum((-1.0) ** k * trig(n * x) / n**s))
    bound = (2 * N) ** (1 - s) / (2 * (s - 1)) if s >= 2 else 1.0 / ((2 * N + 1) * abs(math.cos(x)))
    return value, bound


def exact_differences(m: int, s: int) -> Iterator[float]:
    """Delta^j f(m), f(n) = n^-s, for j = 0, 1, ..., each correctly rounded:
    Delta^j f(m) = (-1)^j j! h_{s-1}(1/m, ..., 1/(m+j)) / P_j, P_j = m...(m+j),
    h_k complete homogeneous symmetric. h_k = N_k / P_j^k with integers N_k;
    node m+j sets N_k <- N_k (m+j)^k + N_{k-1} P_{j-1}. One int/int division
    per difference (the route of `series._differences` before it took floats)."""
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


def sbp_tail(x: float, n0: int, s: int, target: float, deltas: Iterable[float]) -> tuple[complex, float]:
    """sum_{n>n0} z^n f(n), z = e^(ix), f(n) = n^-s, by iterated summation by
    parts at one point: level j adds w^j z^(n0+1)/(1-z) Delta^j f(n0+1),
    w = z/(1-z), with Delta^j f(n0+1) the j-th of `deltas`; levels are added
    while the remainder bound |w|^(j+1) |Delta^j f(n0+1)| shrinks and exceeds
    target (the route of `series._tails` before it took a grid). Returns
    (tail, bound)."""
    w = 1j * cmath.exp(0.5j * x) / (2.0 * math.sin(x / 2))  # 1 - z = -2i sin(x/2) e^(ix/2)
    term = w * cmath.exp(1j * n0 * x)  # z^(n0+1)/(1-z), times w^j at level j
    bound = math.inf if s == 1 else n0 ** (1.0 - s) / (s - 1)
    tail = 0j
    for j, delta in zip(range(_SBP_MAX_LEVELS), deltas):
        if (level_bound := abs(w) ** (j + 1) * abs(delta)) >= bound:
            break
        tail += term * delta
        term *= w
        bound = level_bound
        if bound <= target:
            break
    return tail, bound


def partial_sum_accelerated_per_point(series: TrigSeries, x: float, tol: float = 1e-9) -> EvalResult:
    """The route of the one-point `series.partial_sum_accelerated` before it
    became one point of `partial_sums_accelerated`: the endpoint check, the
    tail and its NotConverged check, then a head of its own numpy arrays and `np.sum`,
    with the tail's exact differences computed afresh at every point. Its
    bound omits the float differences' error, which it does not have. The beta
    character is this route at x - pi/2, then at x + pi/2; its errors name x
    and the beta endpoint, cos x = 0, as the kernel's do."""
    import numpy as np

    if series.exponent < 1:
        raise ValueError("accelerated path covers exponents >= 1")
    s = series.exponent
    if series.character == "beta":
        shifted = TrigSeries("cos" if series.parity == "sin" else "sin", s)
        value = bound = 0.0
        for sign, y in ((1.0, x - math.pi / 2), (-1.0, x + math.pi / 2)):
            try:
                part, q = partial_sum_accelerated_per_point(shifted, y, tol), 2.0 * abs(math.sin(y / 2))
            except OutsideDomain:
                raise OutsideDomain(f"cos x = 0 at x={x}") from None
            except NotConverged as exc:
                raise NotConverged(str(exc).replace(f"at x={y} ", f"at x={x} ")) from None
            slope = 1.0 / q if s == 1 else 2.0 + abs(math.log(q))
            value += sign * part.value
            bound += part.abs_error_estimate + _UNIT_ROUNDOFF * (abs(x) + 3.0) * slope
        return EvalResult((0.5 if series.parity == "sin" else -0.5) * value, bound / 2, "partial_sum")
    if abs(math.sin(x / 2)) < 1e-12:
        raise OutsideDomain(f"x = 0 mod 2*pi at x={x}")
    q = 2.0 * abs(math.sin(x / 2))
    n0 = int(min(_N0_CAP, math.ceil(_N0_SCALE / q)))
    tail, bound = sbp_tail(x, n0, s, min(tol, _UNIT_ROUNDOFF), exact_differences(n0 + 1, s))
    if bound > max(tol, _UNIT_ROUNDOFF):
        raise NotConverged(f"tail remainder {bound:.3e} above tol {tol:.3e} at x={x} with n0={n0} head terms")
    n = np.arange(1, n0 + 1, dtype=np.float64)
    head = 0.0
    head += float(np.sum((np.sin if series.parity == "sin" else np.cos)(n * x) / n**s))
    value = head + (tail.imag if series.parity == "sin" else tail.real)
    log_n0 = 1.0 + math.log(n0)
    tail_size = _SBP_MAX_LEVELS * (n0 + 1.0) ** -s / q
    rounding = 4 * _UNIT_ROUNDOFF * (
        abs(x) * (n0 if s == 1 else log_n0) + (3 + math.log2(n0)) * log_n0 + (n0 * abs(x) + 128) * tail_size
    )
    return EvalResult(value, bound + rounding, "partial_sum")


def heads_by_piece(parity: str, s: int, xs, lengths) -> list[float]:
    """`series._heads` before it batched whole heads: each head cut into
    pieces of at most 5*10^6 terms, consecutive pieces of up to 2^16 terms in
    all (or one longer piece) in one numpy evaluation, and each piece the
    pairwise `sum` of its own slice, added to its head's sum."""
    import numpy as np

    piece, batch = 5_000_000, 1 << 16
    trig = np.sin if parity == "sin" else np.cos
    pieces = [(k, x, start, min(N + 1, start + piece) - start)
              for k, (x, N) in enumerate(zip(xs, lengths)) for start in range(1, N + 1, piece)]
    sums, i = [0.0] * len(xs), 0
    while i < len(pieces):
        j, size = i + 1, pieces[i][3]
        while j < len(pieces) and size + pieces[j][3] <= batch:
            size, j = size + pieces[j][3], j + 1
        heads, xb, starts, counts = zip(*pieces[i:j])
        firsts = np.cumsum(counts) - counts  # each piece's offset in the batch
        n = np.arange(size, dtype=np.float64) + np.repeat(np.subtract(starts, firsts), counts)
        terms = trig(n * np.repeat(xb, counts)) / n**s
        for k, a, c in zip(heads, firsts.tolist(), counts):
            sums[k] += float(terms[a : a + c].sum())
        i = j
    return sums


def trivial_sums_by_point(parity: str, s: int, xs, tol: float, names, endpoint: str) -> list[tuple[float, float]]:
    """`series._trivial_sums` before its per-point loops became array passes:
    the same checks in the same order, n0, the rounding term of the bound and
    head + tail one point at a time, with the heads of `heads_by_piece`."""
    qs = [2.0 * abs(math.sin(x / 2)) for x in xs]  # q = |1 - e^(ix)|
    if endpoints := [name for name, q in zip(names, qs) if q < 2e-12]:
        raise OutsideDomain(f"{endpoint} at x={endpoints[0]}")
    n0s = [int(min(_N0_CAP, math.ceil(_N0_SCALE / q))) for q in qs]
    if sum(n0s) > 20_000_000:
        raise ValueError(f"the heads of the grid add up to {sum(n0s)} terms, above the bound 20000000")
    tails, bounds = _tails(xs, n0s, qs, s, min(tol, _UNIT_ROUNDOFF))
    tails, bounds = (tails.imag if parity == "sin" else tails.real).tolist(), bounds.tolist()
    for name, n0, bound in zip(names, n0s, bounds):
        if bound > max(tol, _UNIT_ROUNDOFF):
            raise NotConverged(f"tail remainder {bound:.3e} above tol {tol:.3e} at x={name} with n0={n0} head terms")
    out = []
    for x, q, n0, head, tail, bound in zip(xs, qs, n0s, heads_by_piece(parity, s, xs, n0s), tails, bounds):
        log_n0 = 1.0 + math.log(n0)
        tail_size = _SBP_MAX_LEVELS * (n0 + 1.0) ** -s / q
        rounding = _UNIT_ROUNDOFF * (4 * (abs(x) * (n0 if s == 1 else log_n0) + (3 + math.log2(n0)) * log_n0)
                                     + (4 * (n0 * abs(x) + 128) + 3 * _SBP_MAX_LEVELS + 2 * s) * tail_size)
        out.append((head + tail, bound + rounding))
    return out


def partial_sums_per_point_loops(series: TrigSeries, xs, tol: float = 1e-9) -> list[EvalResult]:
    """`series.partial_sums_accelerated` over `trivial_sums_by_point`."""
    if series.character == "trivial":
        sums = trivial_sums_by_point(series.parity, series.exponent, xs, tol, xs, "x = 0 mod 2*pi")
    else:
        names = [x for x in xs for _ in range(2)]
        sums = _beta(series, xs, lambda parity, s, ys: trivial_sums_by_point(parity, s, ys, tol, names, "cos x = 0"))
    return [EvalResult(value, bound, "partial_sum") for value, bound in sums]


def pi_poly_mpf(c, pi):
    """The PiPolynomial c at the mpmath number `pi`, by Horner in pi's own
    context (the route of the deleted `PiPolynomial.evaluate`)."""
    ctx = pi.context
    acc = ctx.mpf(0)
    for a in reversed(c.coeffs):
        acc = acc * pi + ctx.mpf(a.numerator) / a.denominator
    return acc


def pipoly_evaluator_mpf(p, pi_digits: int = 30):
    """x -> p(x) as a double by Horner in mpmath at pi_digits + 5 digits, with
    pi and each coefficient of p rounded to that precision first (the route
    `exactnum.pipoly_evaluator` took before it computed in integers)."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = pi_digits + 5
    pi = +ctx.pi
    coeffs = [pi_poly_mpf(c, pi) for c in reversed(p.coeffs)]

    def horner(x) -> float:
        xv = ctx.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else ctx.mpf(x)
        acc = ctx.mpf(0)
        for c in coeffs:
            acc = acc * xv + c
        return float(acc)

    return horner


def nint_l_value_mpmath(scale: int, power: int, pi_mult: int, odd: bool) -> int:
    """The integer nearest to scale L / (pi_mult pi)^power, where L is the
    Dirichlet series sum_k chi(k) k^-power summed directly (Brent and Harvey,
    arXiv:1108.0286): over k >= 1 (chi = 1, L = zeta(power)), or over odd k
    with chi(2j+1) = (-1)^j (`odd`, L = beta(power)). The working precision is
    log2 of the result plus 24 guard bits and the bits that pi^power loses;
    the sum stops at the first omitted k with k^-power below that precision.
    Raises NotConverged if the value lands more than 2^-16 from an integer.

    The route `exactnum._nint_l_value` took before it computed in integers:
    mpmath numbers, mpmath's pi and one `nint`."""
    log2_value = math.log2(scale) - power * math.log2(pi_mult * math.pi)
    prec = max(0, math.ceil(log2_value)) + power.bit_length() + 24
    k_stop = int(2.0 ** ((prec + 2) / power)) + 1
    with _working_precision(math.ceil(prec * math.log10(2)) + 2) as ctx:
        if odd:
            terms = ((-1) ** j * ctx.mpf(2 * j + 1) ** -power for j in range(k_stop // 2 + 1))
        else:
            terms = (ctx.mpf(k) ** -power for k in range(1, k_stop + 1))
        value = scale * ctx.fsum(terms) / (pi_mult * ctx.pi) ** power
        nearest = int(ctx.nint(value))
        if abs(value - nearest) > 2.0**-16:
            raise NotConverged(f"L-value rounding: {ctx.nstr(value - nearest, 3)} from the nearest integer")
    return nearest


def powers_pow(ctx, neg):
    """m -> ctx.mpf(m) ** neg: one mpmath power per prime, neg = -s in ctx."""
    return lambda m: ctx.mpf(m) ** neg


def ln_mpmath(a: int, b: int, prec: int) -> tuple:
    """log(a/b) as mpmath's `log` of the mpf a/b at `prec` bits, as a raw
    libmp value: the number `specfun._ln` holds as an integer."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = prec
    return ctx.log(ctx.mpf(a) / b)._mpf_


def em_sum_mpf(ctx, s, a, n_cut: int, unit: float):
    """The route `specfun._em_sum` took before its corrections ran in
    integers: s and a are mpmath numbers of `ctx`, and every correction is
    one mpf product and sum.

    Euler-Maclaurin sum_(n>=0) (n + a)^-s less its pole term base^(1-s)/(s-1),
    base = N + a: N head powers, base^-s / 2 and sum_(k<=K) B_2k/(2k)! g_k,
    g_k = (s)_(2k-1) base^(-s-2k+1), which take no power: g_1 = s base^-s /
    base, g_(k+1) = g_k (s+2k-1)(s+2k) / base^2. K <= 41 is the first K whose
    remainder bound after K terms, |B_2K/(2K)! g_K| |s+2K-1|/(sigma+2K-1) =
    |B_2K/(2K)!| |(s)_2K| base^(-sigma-2K+1)/(sigma+2K-1) (Johansson,
    arXiv:1309.2877, theorem 1 with M = K), carried in doubles, times `unit`
    (the returned value per unit of this sum) is below _EM_TARGET. Returns
    (sum, base^(1-s), bound in units of the sum). Raises NotConverged where no
    K <= 41 has a finite bound (sigma + 2 K_max - 1 <= 0), before any work."""
    sc = complex(s)
    if sc.real + 2 * _EM_K_MAX - 1 <= 0:
        raise NotConverged(
            f"Euler-Maclaurin at Re s = {sc.real:g}: no finite remainder bound within "
            f"{_EM_K_MAX} terms at Re s <= {-2 * _EM_K_MAX + 1}"
        )
    exact, approx = _em_coefficients()
    base = n_cut + a
    base_pow = base ** (-s)
    b = float(base)
    g, inv_sq = s * base_pow / base, 1 / (base * base)
    total = ctx.fsum((n + a) ** (-s) for n in range(n_cut)) + base_pow / 2
    g_abs, err = abs(sc) * float(abs(base_pow)) / b, math.inf
    for k in range(1, _EM_K_MAX + 1):
        num, den = exact[k - 1]
        total += g * num / den
        if sc.real + 2 * k - 1 > 0:
            err = approx[k - 1] * g_abs * abs(sc + 2 * k - 1) / (sc.real + 2 * k - 1)
            if unit * err < _EM_TARGET:
                break
        g *= (s + 2 * k - 1) * (s + 2 * k) * inv_sq
        g_abs *= abs(sc + 2 * k - 1) * abs(sc + 2 * k) / (b * b)
    return total, base * base_pow, err


def em_sum_mpf_shifts(ar, prec: int, ratio, n_cut: int, unit: float, shifts) -> list:
    """`em_sum_mpf` at every shift, with its own head of one mpmath power per
    term, on raw values at `prec` bits (a drop-in for `specfun._em_sum`). The
    heads in `shifts` go unused; each shift's c base^-s gives only the scale c
    (c = 1 for zeta, 4^-s for beta's shifts) by which the sum and
    base^(1-s) are returned, as `specfun._em_sum` returns them."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = prec
    out = []
    for a, _, (x, y, e), _ in shifts:
        smp, a_mp = _mp_of(ctx, ratio), ctx.mpf(a)
        total, lead, err = em_sum_mpf(ctx, smp, a_mp, n_cut, unit)
        scale = (ctx.mpc(ctx.ldexp(x, e), ctx.ldexp(y, e)) if y else ctx.ldexp(x, e)) * (n_cut + a_mp) ** smp
        out.append((_raw(total * scale), _raw(lead * scale), err))
    return out


def hurwitz_zeta(s, a) -> EvalResult:
    """Hurwitz zeta(s, a) for 0 < a <= 1 by `specfun`'s Euler-Maclaurin route
    (`specfun._em_sum`, read at call time), its head one mpmath power per
    term taken to a fixed point of prec + 8 bits; the bound is `zeta_em`'s."""
    a = float(a)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    sc = complex(s)
    if abs(sc - 1) < 1e-13:
        raise PoleHit(f"s={sc} is within 1e-13 of the pole at s=1")
    n_cut, dps = _em_params(sc.real, abs(sc.imag))
    _check_validated_domain(sc, "hurwitz_zeta")
    ratio, ar, prec, s_raw = specfun._call(s, dps)
    with _working_precision(dps) as ctx:
        smp, a_mp, wp = _number(ctx, s_raw), ctx.mpf(a), prec + 8
        head = _fixed(ctx.fsum((n + a_mp) ** (-smp) for n in range(n_cut)), wp)
        base_pow = (n_cut + a_mp) ** (-smp)
        shift = (a, (*head, -wp), _floating(base_pow), float(abs(base_pow)))
        ((part, lead, err),) = specfun._em_sum(ar, prec, ratio, n_cut, 1.0, [shift])
        out = complex(_number(ctx, part) + _number(ctx, lead) / (smp - 1))
    return EvalResult(out, max(err, abs(out) * 1e-15 + 1e-16), "euler_maclaurin")


def powers_context(ctx, neg):
    """m -> m^neg for an integer m >= 1, bit-identical to ctx.mpf(m) ** neg:
    exp(neg log m) with log m mpmath's at prec + 10 bits (`specfun._ln`) at a
    real neg neither an integer nor a half-integer, else mpmath's `**`. The
    power per prime of `specfun` before its table ran in integers."""
    t = getattr(neg, "_mpf_", None)
    if t is None or t[2] >= -1:  # complex, or an integer or half-integer (binary exponent >= -1)
        return lambda m: ctx.mpf(m) ** neg
    from mpmath.libmp import from_man_exp, mpf_exp, mpf_mul, round_nearest

    prec = ctx.prec

    def power(m):
        ln = from_man_exp(specfun._ln(m, 1, prec + 10), -prec - 26)
        return ctx.make_mpf(mpf_exp(mpf_mul(t, ln), prec, round_nearest))

    return power


def power_table_context(ctx, smp, top: int, odd: bool = False, powers=powers_context) -> list:
    """m^-s at m = 1..top (odd m only if `odd`; None elsewhere) as mpmath
    numbers of ctx, by a linear sieve: one power per prime (`powers`), one
    product per composite. The table of `specfun` before it ran in integers."""
    table = [None] * (top + 1)
    table[1] = ctx.mpf(1)
    power, primes = powers(ctx, -smp), []
    for m in range(2 + odd, top + 1, 1 + odd):
        if table[m] is None:
            table[m] = power(m)
            primes.append(m)
        for p in primes:
            if m * p > top:
                break
            table[m * p] = table[m] * table[p]
            if m % p == 0:
                break
    return table


def _fixed(x, wp: int) -> tuple[int, int]:
    """An mpf or mpc as a Gaussian integer at 2^-wp, each part floored."""
    return x.real.to_fixed(wp), x.imag.to_fixed(wp)


def _floating(x) -> tuple[int, int, int]:
    """An mpf or mpc exactly as (re, im, e): (re + i im) 2^e."""
    (xs, xm, xe, _), (ys, ym, ye, _) = x.real._mpf_, x.imag._mpf_
    xm, ym, e = -xm if xs else xm, -ym if ys else ym, min(xe if xm else ye, ye if ym else xe)
    return (xm << xe - e if xm else 0), (ym << ye - e if ym else 0), e


def _powers_of(ctx, ratio, smp, prec: int, top: int, q: int, bases: list, powers) -> tuple:
    """(wp, re, im, floats, q_abs, power) as `specfun._l_em` reads them: the
    table of m^-s at 2^-wp over the m coprime to q, the full-precision
    powers at the prime bases, |q^-s| and the one power of a base. With
    `powers` None they come from `specfun._power` and `specfun._power_table`
    (read at call time); else from mpmath's table `power_table_context`
    with `powers`, each number floored to 2^-wp or taken exactly."""
    wp, odd, real = prec + 8, q % 2 == 0, not ratio[1]
    if powers is None:
        power = specfun._power(ratio, prec, top)
        re, im, floats = specfun._power_table(power, wp, top, odd=odd, real=real, full=bases)
        return wp, re, im, floats, specfun._modulus(*power(q)) if q > 1 else (1, 0), power
    table = power_table_context(ctx, smp, top, odd, powers)
    parts = [None if x is None else _fixed(x, wp) for x in table]
    re, im = [p and p[0] for p in parts], None if real else [p and p[1] for p in parts]
    floats = {m: _floating(table[m]) for m in bases}
    power = powers(ctx, -smp)
    q_abs = ctx.mpf(abs(power(q))).man_exp if q > 1 else (1, 0)
    return wp, re, im, floats, q_abs, lambda m: _floating(power(m))


def _l_em_context(s, kind: str, caller: str, seen: list | None, powers) -> EvalResult:
    """`specfun._l_em` on mpmath numbers of a per-thread context: its table,
    heads and integer corrections (`em_sum_context`), its pole term and one
    rounding; `seen`, if given, receives the raw value before its rounding to
    a double; `powers` as for `_powers_of`."""
    sc, q = complex(s), 1 if kind == "zeta" else 4
    if q == 1 and abs(sc - 1) < 1e-13:
        raise PoleHit(f"s={sc} is within 1e-13 of the pole at s=1")
    n_cut, dps = _em_params(sc.real, abs(sc.imag), stride=q)
    _check_validated_domain(sc, caller)
    ratio, qn = _ratio(s), q * n_cut
    residues = [1] if q == 1 else [1, 3]
    bases = [qn + a for a in residues]
    with _working_precision(dps) as ctx:
        smp = _mp_of(ctx, ratio)
        wp, re, im, floats, q_abs, power = _powers_of(ctx, ratio, smp, ctx.prec, bases[-1], q, bases, powers)
        unit, shifts = specfun._scaled(*q_abs), []
        for a, m in zip(residues, bases):
            head = (sum(re[a:m:q]), sum(im[a:m:q]) if im else 0, -wp)
            base_pow = floats.get(m) or (re[m], im[m] if im else 0, -wp)
            if max(abs(base_pow[0]), abs(base_pow[1])).bit_length() < ctx.prec:
                base_pow = power(m)
            shifts.append(em_sum_context(ctx, ratio, n_cut, unit, a / q, head, base_pow,
                                         specfun._scaled(*specfun._modulus(*base_pow), *q_abs)))
        (part1, lead1, err1), *others = shifts
        if q == 1:
            out = _rounded(ctx.fsum([part1, lead1 / (smp - 1)]), seen)
            return EvalResult(out, max(err1, abs(out) * 1e-15 + 1e-16), "euler_maclaurin")
        ((part2, _, err2),) = others
        log_ratio = ctx.ldexp(specfun._ln(bases[1], bases[0], ctx.prec), -ctx.prec - 16)
        if abs(smp - 1) < 1e-13:
            pole = lead1 * log_ratio
        else:
            pole = -lead1 * ctx.expm1((1 - smp) * log_ratio) / (smp - 1)
        out = _rounded(ctx.fsum([part1, -part2, pole]), seen)
    return EvalResult(out, unit * (err1 + err2) + abs(out) * 1e-15 + 1e-16, "hurwitz_difference")


def em_sum_context(ctx, ratio, n_cut: int, unit: float, a: float, head, base_pow, base_abs: float):
    """`specfun._em_sum` at one shift a on mpmath numbers of ctx: the same
    integer corrections at the same fixed point, the head, half of c base^-s
    and the corrections added exactly and rounded once to ctx.prec. Returns
    (sum, c base^(1-s), bound in units of the sum)."""
    p_re, p_im, q = ratio
    sc = complex(p_re / q, p_im / q)
    exact, approx = _em_coefficients()
    (a_num, bd), b = a.as_integer_ratio(), n_cut + a
    bn, (x, y, e), (h_re, h_im, h_e) = n_cut * bd + a_num, base_pow, head
    frac_bits = ctx.prec + 16 - max(abs(x), abs(y)).bit_length() - e - int(abs(sc)).bit_length()
    sh, den = frac_bits + e, q * bn
    g_re, g_im = [(n * bd << sh) // den if sh >= 0 else n * bd // (den << -sh) for n in (p_re * x - p_im * y, p_re * y + p_im * x)]
    step_den, bd_sq = den * den, bd * bd
    sum_re = sum_im = 0
    g_abs, err = abs(sc) * base_abs / b, math.inf
    for k in range(1, _EM_K_MAX + 1):
        num, den_k = exact[k - 1]
        sum_re += g_re * num // den_k
        sum_im += g_im * num // den_k
        if sc.real + 2 * k - 1 > 0:
            err = approx[k - 1] * g_abs * abs(sc + 2 * k - 1) / (sc.real + 2 * k - 1)
            if unit * err < _EM_TARGET:
                break
        u, v = p_re + (2 * k - 1) * q, p_re + 2 * k * q
        m_re, m_im = (u * v - p_im * p_im) * bd_sq, p_im * (u + v) * bd_sq
        g_re, g_im = (g_re * m_re - g_im * m_im) // step_den, (g_re * m_im + g_im * m_re) // step_den
        g_abs *= abs(sc + 2 * k - 1) * abs(sc + 2 * k) / (b * b)
    top = max(-h_e, 1 - e, frac_bits)
    total = [ctx.mpf(((h << top + h_e) + (w << top + e - 1) + (c << top - frac_bits), -top))
             for h, w, c in ((h_re, x, sum_re), (h_im, y, sum_im))]
    lead = [ctx.mpf((w * bn, e + 1 - bd.bit_length())) for w in (x, y)]
    if not p_im:
        return total[0], lead[0], err
    return ctx.mpc(*total), ctx.mpc(*lead), err


def zeta_em_context(s, seen: list | None = None, powers=None) -> EvalResult:
    """`specfun.zeta_em` on mpmath numbers of a per-thread context (`_l_em_context`)."""
    return _l_em_context(s, "zeta", "zeta_em", seen, powers)


def dirichlet_beta_context(s, seen: list | None = None, powers=None) -> EvalResult:
    """`specfun.dirichlet_beta` on mpmath numbers of a per-thread context, one
    correction loop per shift and mpmath's expm1 (`_l_em_context`)."""
    return _l_em_context(s, "beta", "dirichlet_beta", seen, powers)


def recip_gamma_context(s, seen: list | None = None) -> EvalResult:
    """`specfun.recip_gamma` as mpmath's rgamma at 50 digits in a per-thread
    context, with its stated bound 1e-12 max(1, |value|); `seen` as for
    `zeta_em_context`."""
    sc = complex(s)
    if sc.imag == 0.0 and sc.real <= 0 and sc.real == int(sc.real):
        value = complex(0.0)
    else:
        with _working_precision(50) as ctx:
            value = _rounded(ctx.rgamma(_mp_of(ctx, _ratio(s))), seen)
    return EvalResult(value, 1e-12 * max(1.0, abs(value)), "rgamma")


def _rounded(x, seen: list | None) -> complex:
    """complex(x), after appending x's raw value to `seen` if given."""
    if seen is not None:
        seen.append(_raw(x))
    return complex(x)


def _ray_cutoff(sig: float, tau: float, delta: float) -> float:
    # |t^(s-1)| e^(-r cos delta) < 1e-18 along the rays
    r = 60.0
    for _ in range(4):
        r = (45.0 + max(0.0, sig - 1.0) * math.log(r) + tau * math.pi + 5.0) / math.cos(delta)
    return r


def _hankel_loop(s, x: float, rho: float, delta: float):
    """Gamma(1-s)/(2 pi i) times the loop integral of t^(s-1)/(e^(-t-ix) - 1):
    in along the ray at angle -(pi - delta), around |t| = rho, out along
    +(pi - delta). Returns (value, quadrature error, cancellation floor); the
    floor is 0.0 unless the segments cancel to below 1e-12 of their size."""
    sc = complex(s)
    r_max = _ray_cutoff(sc.real, abs(sc.imag), delta)
    theta = math.pi - delta
    with _working_precision(30) as ctx:
        smp = _mp_of(ctx, _ratio(s))
        ix = ctx.mpc(0, x)

        def kernel(t):
            return ctx.power(t, smp - 1) / ctx.expm1(-t - ix)

        e_up = ctx.exp(1j * theta)
        e_lo = ctx.exp(-1j * theta)
        up, e1 = ctx.quad(lambda u: kernel(u * e_up) * e_up, [rho, r_max], error=True)
        lo, e2 = ctx.quad(lambda u: kernel(u * e_lo) * e_lo, [rho, r_max], error=True)
        circ, e3 = ctx.quad(
            lambda ph: kernel(rho * ctx.exp(1j * ph)) * 1j * rho * ctx.exp(1j * ph),
            [-theta, theta],
            error=True,
        )
        magnitude = float(abs(up) + abs(lo) + abs(circ))
        integral = up - lo + circ
        pref = ctx.gamma(1 - smp) / (2j * ctx.pi)
        val = complex(pref * integral)
        qerr = float(abs(pref) * (e1 + e2 + e3))
        cancel = float(abs(integral)) < 1e-12 * magnitude
        floor = float(abs(pref)) * magnitude * 1e-24 if cancel else 0.0
    return val, qerr, floor


def hankel_zeta(s, rho: float = math.pi, delta: float = 0.15) -> EvalResult:
    """zeta(s) for Re s < 1 from the loop integral of t^(s-1)/(e^-t - 1)
    times Gamma(1-s)/(2 pi i).

    The rays hug the branch cut at angle +/-(pi - delta). rho must stay below
    2*pi or the kernel poles at +/-2*pi*i would be enclosed (ValueError).
    """
    sc = complex(s)
    if sc.real >= 1:
        raise ValueError("hankel_zeta requires Re s < 1")
    if not 0 < rho < _TWO_PI:
        raise ValueError(f"rho={rho} must lie in (0, 2*pi) to exclude the kernel poles at +/-2*pi*i")
    if not 0 < delta < math.pi / 2:
        raise ValueError("delta must lie in (0, pi/2)")
    val, qerr, floor = _hankel_loop(s, 0.0, rho, delta)
    err = qerr + abs(val) * 1e-14 + 1e-14
    # branch terms nearly cancel close to (but not at) integer s
    near_int = abs(sc.real - round(sc.real)) < 1e-9 and abs(sc.imag) < 1e-9
    if floor and not near_int:
        warnings.warn("hankel_zeta: severe cancellation between contour segments", PrecisionLoss, stacklevel=2)
        err = max(err, floor)
    return EvalResult(val, err, "hankel_loop")


def lerch_hankel(s, x: float, delta: float = 0.15, rho: float | None = None) -> EvalResult:
    """Abel-regularized sum of e^(i n x) / n^s over n >= 1 for 0 < x < 2*pi,
    Re s < 1, by a Hankel loop of t^(s-1)/(e^(-t-ix) - 1) times
    Gamma(1-s)/(2 pi i).

    At s = 0 the loop reduces to the t = 0 residue, 1/(e^-ix - 1). The kernel
    poles sit at t = i(2*pi*k - x); the default rho = min(x, 2*pi - x)/2 keeps
    them strictly outside the circle.
    """
    if not 0 < x < _TWO_PI:
        raise ValueError("x must lie in (0, 2*pi)")
    if complex(s).real >= 1:
        raise ValueError("lerch_hankel requires Re s < 1")
    pole_dist = min(x, _TWO_PI - x)
    if rho is None:
        rho = pole_dist / 2
    if rho >= pole_dist:
        raise ValueError(f"rho={rho} would enclose the kernel pole at distance {pole_dist:.6g} from the origin")
    val, qerr, _ = _hankel_loop(s, x, rho, delta)
    err = qerr + abs(val) * 1e-13 + 1e-13
    if pole_dist < 0.05:
        warnings.warn("lerch_hankel: kernel pole close to the contour", PrecisionLoss, stacklevel=2)
        err = max(err, 1e-8)
    return EvalResult(val, err, "hankel_loop")


def functional_equation_residual(s) -> float:
    """Residual of the functional equation, all factors numeric, in the
    direction whose Gamma factor has no pole (Gamma(1-s) has one at each
    integer s >= 2); s = 0 and s = 1 raise PoleHit:
      Re s < 1/2:   |zeta(s) - 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)|
      Re s >= 1/2:  |zeta(1-s) - 2 (2 pi)^-s cos(pi s/2) Gamma(s) zeta(s)|"""
    sc = complex(s)
    zs = zeta_em(s).value
    z1s = zeta_em(1 - sc).value
    with _working_precision(40) as ctx:
        if sc.real < 0.5:
            pref = ctx.mpf(2) ** sc * ctx.pi ** (sc - 1) * ctx.sin(ctx.pi * sc / 2) * ctx.gamma(1 - ctx.mpc(sc))
            return abs(zs - complex(pref) * z1s)
        pref = 2 * (2 * ctx.pi) ** -sc * ctx.cos(ctx.pi * sc / 2) * ctx.gamma(ctx.mpc(sc))
        return abs(z1s - complex(pref) * zs)


def _trig_degrees(trig: str, terms: int) -> list[int]:
    start = 1 if trig == "sin" else 0
    return [start + 2 * j for j in range(terms)]


def _singular_branch(trig: str, shift: int) -> Expression:
    """The branch term of zeta(shift - iD) on sin or cos at shift <= 0, by
    differentiating the series term by term from shift 0: there sum sin(n x)
    = sin x/(2(1 - cos x)) has the pole 1/x, and sum cos(n x) = -1/2 none.
    d/dx takes the sine series at shift a to the cosine series at a - 1, and
    the cosine series to minus the sine series."""
    sin, cos = (1, -1), (0, -1)  # (coefficient, power) of each series' singular term; 0: none
    for _ in range(-shift):
        sin, cos = (-cos[0] * cos[1], cos[1] - 1), (sin[0] * sin[1], sin[1] - 1)
    c, power = sin if trig == "sin" else cos
    return Expression(singular_terms=(SingularTerm(PiPolynomial([c]), power),)) if c else Expression()


def taylor_flow_per_degree(op: DilationShift, trig: str, K: int) -> TaylorFlowResult:
    """`operators.taylor_flow` by its own loop over the Taylor degrees of sin
    or cos: each coefficient (-1)^j/d! times `special_value` at shift - d,
    after the pole-parity rule: the pole degree shift - 1 of zeta raises
    PoleHit where it has the parity of the expansion. The branch term comes
    from the closed forms, not from the Mellin rule: at shift >= 1 it is the
    Clausen polynomial less the whole flow, at shift <= 0 `_singular_branch`,
    and beta has none."""
    if K < 4:
        raise ValueError("K must be >= 4")
    if trig not in ("sin", "cos"):
        raise ValueError("trig must be 'sin' or 'cos'")
    if op.kind not in ("zeta", "beta"):
        raise UnsupportedExpression("taylor_flow drives zeta/beta kinds")
    if op.shift.denominator != 1:
        raise UnsupportedExpression("taylor_flow needs an integer shift for exact values")
    shift = int(op.shift)

    pole_degree = shift - 1 if op.kind == "zeta" else -1
    if pole_degree >= 0 and (trig == "sin") == (pole_degree % 2 == 1):
        raise PoleHit(f"operator argument hits the pole at monomial degree {pole_degree}")

    # zeta's flow up to degree shift as well, which the Clausen polynomial reaches
    degrees = _trig_degrees(trig, max(K, shift // 2 + 1) if op.kind == "zeta" else K)
    coeffs = [PiPolynomial()] * (degrees[-1] + 1)
    for j, d in enumerate(degrees):
        value, _, method = special_value(op.kind, Fraction(shift - d))
        if method != "exact":
            raise UnsupportedExpression(f"no exact value at argument {shift - d}; taylor_flow stays in Q[pi]")
        c = Fraction((-1) ** j, factorial(d))
        coeffs[d] = value * c if isinstance(value, PiPolynomial) else PiPolynomial((value * c,))
    poly = PiXPolynomial(coeffs[: _trig_degrees(trig, K)[-1] + 1])
    if op.kind == "beta":
        branch = Expression()
    elif shift >= 1:
        branch = Expression(clausen_closed_form(trig, (shift + 1) // 2) - PiXPolynomial(coeffs))
    else:
        branch = _singular_branch(trig, shift)
    return TaylorFlowResult(poly, branch)


def extract_special_values_per_degree(rec, terms: int = 8) -> list[ExtractedValue]:
    """`operators.extract_special_values` by its own loop over the Taylor
    degrees: the factor of kind(shift - d) is (-1)^j/d! times
    1/Gamma(gamma_shift + d) from `special_value`, and a zero factor carries
    no equation."""
    rhs = rec.exact_rhs(terms)
    if rhs is None:
        raise ValueError(f"identity {rec.id!r} has no exact polynomial right side")
    if rec.op is None or rec.trig is None:
        raise ValueError(f"identity {rec.id!r} is not an operator-on-trig identity")
    shift = int(rec.op.shift)
    out: list[ExtractedValue] = []
    for j, d in enumerate(_trig_degrees(rec.trig, terms)):
        factor = Fraction((-1) ** j, factorial(d))
        if rec.gamma_shift is not None:
            gamma_factor = special_value("recip_gamma", rec.gamma_shift + d).value
            if gamma_factor == 0:
                continue
            factor *= gamma_factor
        arg = shift - d
        value = rhs.coeff(d) / factor
        if value.is_rational():
            value = value.as_rational()
        independent, _, method = special_value(rec.op.kind, Fraction(arg))
        matched = method == "exact" and independent == value
        out.append(ExtractedValue(arg, value, bool(matched)))
    return out
