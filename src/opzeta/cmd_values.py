"""`opzeta values KIND ARG...`: a table of zeta, beta, Bernoulli or Euler
values. `cli` imports this module only when it dispatches to `values`. A row
takes its route (exact, numeric or pole) from `exactnum.special_value`, the
one table the operator engine reads too: at an integer it loads `exactnum`,
and `pipoly` only for a value with a power of pi; a numeric value loads
`specfun`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .cli import FORMATS, NEGATIVE_NUMBER, write_result
from .errors import OpzetaError


def arguments(p) -> None:
    p.add_argument("kind", choices=("zeta", "beta", "bernoulli", "euler"))
    p.add_argument("args", nargs="+")
    p._negative_number_matcher = NEGATIVE_NUMBER
    p.add_argument("--format", choices=FORMATS, default="text")


# |argument| bound of `values`: the exact values grow with it (B_k and E_k
# have about k log10(k) digits; E_4000 takes 0.4 s); at the bound the slowest
# row, E_1000, takes 7-8 ms on a 2-vCPU VM.
_VALUES_BOUND = 1000


def _exact_row(tok: str, exact) -> dict:
    """A `values` row for an exact Fraction or PiPolynomial, rounded once to
    a double; the double is None where the value lies beyond its range."""
    try:
        value = float(exact)
    except OverflowError:
        value = None
    return {"argument": tok, "value": value, "exact": str(exact), "method": "exact", "abs_error": 0.0}


def _values_row(kind: str, tok: str, v: float) -> dict:
    from .exactnum import bernoulli_number, euler_number, special_value

    if kind in ("bernoulli", "euler"):
        return _exact_row(tok, bernoulli_number(int(v)) if kind == "bernoulli" else Fraction(euler_number(int(v))))
    r = special_value(kind, Fraction(v))
    if r.method == "exact":
        return _exact_row(tok, r.value)
    pole = r.method == "pole"
    return {"argument": tok, "value": None if pole else r.value.real, "exact": "pole at s=1" if pole else "",
            "method": r.method, "abs_error": r.abs_error_estimate}


def run(args, out) -> int:
    values = []
    for tok in args.args:
        try:
            v = float(tok)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            print(f"bad numeric argument {tok!r}: need a finite number", file=sys.stderr)
            return 2
        if abs(v) > _VALUES_BOUND:
            print(f"bad numeric argument {tok!r}: need |argument| <= {_VALUES_BOUND}", file=sys.stderr)
            return 2
        if args.kind in ("bernoulli", "euler") and (v < 0 or v != int(v)):
            print(f"{args.kind} needs a nonnegative integer, got {tok!r}", file=sys.stderr)
            return 2
        values.append((tok, v))

    try:
        rows = [_values_row(args.kind, tok, v) for tok, v in values]
    except OpzetaError as exc:
        print(f"values error: {exc}", file=sys.stderr)
        return 1

    def text() -> str:
        lines = [f"{args.kind} values\n"]
        for r in rows:
            val = "-" if r["value"] is None else f"{r['value']:.12g}"
            err = "-" if r["abs_error"] is None else f"{r['abs_error']:.2e}"
            exact = f"  = {r['exact']}" if r["exact"] else ""
            lines.append(f"  {r['argument']:>8}  {val:>22}{exact}  [{r['method']}, err<={err}]\n")
        return "".join(lines)

    write_result(out, args.format, {"kind": args.kind}, rows, text)
    return 0
