"""Command-line surface: identity verification, value tables, special-value
extraction, and matrix export.

Exit codes: 0 = pass, 1 = verification/extraction failure, 2 = usage error.
Output is deterministic: identical invocations produce byte-identical bytes
(fixed float formats, fixed row order). `verify`, `values` and `extract` each
build a head and flat rows, which one writer, `_write`, prints as JSON, CSV or
text. Each command imports the layers it uses when it runs, and `list` none
but the registry, which holds plain data. `values` at an integer loads
`exactnum` alone, `extract` and `verify --exact` load `operators` and
`exactnum` but no `series` or `specfun`, and a grid `verify` loads no
`operators`; json and csv load for their format only, and no layer loads
`dataclasses`. A `values` row takes its route (exact, numeric or pole) from
`exactnum.special_value`, the one table the operator engine reads too, which
imports `specfun` for a numeric value only. A command's own parser reads its
arguments in one pass (the top-level parser takes help, an unknown command
and leftover arguments), and a grid identity's right side is built once per
identity.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, Optional

from .errors import OpzetaError

_EXACT_K = 12
# bound of `verify --grid`'s steps (the registry's largest is 50); the head
# terms a sum-mode grid sums are bounded in `series.partial_sums_accelerated`
_GRID_STEPS_BOUND = 10_000


def _row(identity: str, x, lhs, rhs, deviation: float, method: str) -> dict:
    return {"id": identity, "x": x, "lhs": lhs, "rhs": rhs, "deviation": deviation, "method": method}


def _verify_exact(rec: registry.IdentityRecord) -> tuple[list[dict], float, list[str]]:
    """Exact-equality verification in Q[pi] -> (rows, max deviation, pole
    events); the deviation is 0.0 on equality and inf otherwise."""
    from .exactnum import clausen_closed_form
    from .operators import Expression, apply_recip_gamma_op, taylor_flow
    from .registry import ANNIHILATED_CONSTANT, ANOMALY_MISSING

    if rec.kind is None:
        raise ValueError(f"{rec.id}: exact mode needs an operator-on-trig left side")
    events = []
    flow = taylor_flow(rec.op, rec.trig, _EXACT_K)
    anomaly = flow.branch.poly  # the branch term's polynomial part, which the flow misses
    if rec.gamma_shift is not None:
        # route A: closed form of the series, then the exact 1/Gamma action
        closed = clausen_closed_form(rec.trig, (rec.shift + 1) // 2 if rec.trig == "sin" else rec.shift // 2)
        route_a = apply_recip_gamma_op(rec.gamma_shift, Expression.from_poly(closed)).poly
        if anomaly and apply_recip_gamma_op(rec.gamma_shift, flow.branch).is_zero():
            events.append(ANNIHILATED_CONSTANT)
        # route B: term-by-term flow first, 1/Gamma after
        route_b = apply_recip_gamma_op(rec.gamma_shift, Expression.from_poly(flow.poly)).poly
        target = rec.rhs_poly
        lhs_polys = [route_a, route_b]
        equal = route_a == route_b == target
    else:
        # the flow plus the branch term's polynomial part rebuilds the right side exactly
        target = rec.exact_rhs(_EXACT_K)
        if target is None:
            raise ValueError(f"{rec.id}: no exact right side available for exact mode")
        lhs_polys = [flow.poly + anomaly]
        equal = lhs_polys[0] == target
    if anomaly:
        events.append(ANOMALY_MISSING)
    deviation = 0.0 if equal else math.inf
    return [_row(rec.id, None, repr(p), repr(target), deviation, "exact") for p in lhs_polys], deviation, events


@cache
def _rhs_evaluator(identity: str) -> Callable[[float], float]:
    """x -> the right side of the registry's record `identity`: its
    polynomial's coefficients at pi once, then Horner per x (`rhs_poly`
    first), or its closed form. Built once per identity and only read after."""
    from . import registry
    from .exactnum import pipoly_evaluator

    rec = registry.load_registry()[identity]
    return pipoly_evaluator(rec.rhs_poly) if rec.rhs_literal is not None else rec.closed_form()


def _verify_grid(rec: registry.IdentityRecord, grid: tuple[float, float, int], tol: float) -> tuple[list[dict], float, list[str]]:
    """Numeric verification on the grid -> (rows, max deviation, no events);
    the right side is that of the registry's record of rec.id."""
    from . import series

    mode = rec.verify_mode
    a, b, steps = grid
    xs = [a + (b - a) * i / (steps - 1) for i in range(steps)] if steps > 1 else [a]
    # one route call per grid; a sum-mode grid beyond the head terms bound is a usage error
    if mode == "geometric":  # sum e^(inx) = sum cos(nx) + i sum sin(nx), both Abel sums
        cos_sums, sin_sums = (series.abel_sums(series.TrigSeries(parity, 0), xs) for parity in ("cos", "sin"))
        rows = []
        for x, cv, sv in zip(xs, cos_sums, sin_sums):
            lhs, rhs = complex(cv.value, sv.value), series.geometric_abel(x)
            off_line = abs(rhs.real + 0.5) > 1e-8 or abs(lhs.real + 0.5) > 1e-8
            rows.append(_row(rec.id, x, repr(lhs), repr(rhs), math.inf if off_line else abs(lhs - rhs), sv.method))
    else:
        sums = series.partial_sums_accelerated(rec.series, xs, tol * 1e-3) if mode == "sum" else series.abel_sums(rec.series, xs)
        rhs_at = _rhs_evaluator(rec.id)
        rows = [_row(rec.id, x, sv.value, rhs, abs(sv.value - rhs), sv.method) for x, sv in zip(xs, sums) for rhs in (rhs_at(x),)]
    worst = 0.0
    if rec.extra_check is not None:  # the one check the registry loads: Re of the geometric Abel sum is -1/2
        worst = max(abs(series.geometric_abel(x).real + 0.5) for x in xs)
        rows.append(_row(rec.id, None, "Re(geometric)", "-1/2", worst, "closed_form"))
    # over every row, in row order from 0.0, as a running max: a nan deviation leaves it unchanged
    return rows, math.inf if worst > 1e-8 else max([0.0, *(r["deviation"] for r in rows)]), []


def _write(out, fmt: str, head: dict, rows: list[dict], text: Callable[[], str], cells: Callable = dict.values) -> None:
    """Write the result of `verify`, `values` or `extract` as `fmt`.

    json: `{**head, "rows": rows}` with sorted keys, in the layout `json.dumps`
    gives it at an indent of 2, plus a newline. An indent makes CPython encode
    in pure Python, so the C encoder writes it here, its item separators
    carrying the layout's newlines. An encoded string holds no raw newline, so
    `}`, the row separator and `{` always mark a row boundary. The head holds
    scalars or flat lists under plain ASCII names (no quote, backslash or
    control character), written quoted as they are; the rows are non-empty
    flat dicts. csv: a header of the row keys, then `cells(row)` per row.
    text: `text()`, for text only.
    """
    if fmt == "text":
        out.write(text())
    elif fmt == "csv":
        import csv

        csv.writer(out, lineterminator="\n").writerows([list(rows[0]), *map(cells, rows)] if rows else [])
    else:
        from json import JSONEncoder

        head_enc = JSONEncoder(sort_keys=True, separators=(",\n    ", ": "))
        rows_enc = JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
        items = []
        for key in sorted([*head, "rows"]):
            value = rows if key == "rows" else head[key]
            if key == "rows" and rows:
                body = rows_enc.encode(rows)[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                encoded = "[\n    {\n      " + body + "\n    }\n  ]"
            elif isinstance(value, list) and value:
                encoded = "[\n    " + head_enc.encode(value)[1:-1] + "\n  ]"
            else:
                encoded = head_enc.encode(value)
            items.append(f'"{key}": {encoded}')
        out.write("{\n  " + ",\n  ".join(items) + "\n}\n")


def _x_text(x: Optional[float]) -> str:
    """`verify`'s text x: fixed point, unless a nonzero x would print as zero."""
    return "-" if x is None else f"{x:.6f}" if x == 0 or abs(x) >= 1e-3 else f"{x:.6e}"


def _cmd_verify(args, out) -> int:
    from . import registry

    try:
        rec = registry.get_identity(args.id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    exact = args.exact or rec.verify_mode == "exact"
    if exact and args.grid is not None:
        print(f"{rec.id}: the exact route compares polynomials in Q[pi] and takes no --grid", file=sys.stderr)
        return 2
    grid = rec.default_grid if args.grid is None else args.grid
    a, b, steps = grid
    if not 1 <= steps <= _GRID_STEPS_BOUND:
        print(f"grid steps must lie in [1, {_GRID_STEPS_BOUND}], got {steps}", file=sys.stderr)
        return 2
    if not (rec.domain.contains(a) and rec.domain.contains(b)):
        print(f"grid [{a}, {b}] outside the stated domain {rec.domain} of {rec.id}", file=sys.stderr)
        return 2
    tol = rec.default_tol if args.tol is None else args.tol
    if not (math.isfinite(tol) and tol > 0):
        print(f"--tol must be a finite number > 0, got {tol!r}", file=sys.stderr)
        return 2
    try:
        rows, deviation, events = _verify_exact(rec) if exact else _verify_grid(rec, grid, tol)
    except OpzetaError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    # an exact run passes with the one event its record states, or with none where it states none
    passed = deviation <= tol and (not exact or (rec.expected_event in events if rec.expected_event else not events))
    mode = "exact" if exact else rec.verify_mode

    def text() -> str:
        side = lambda v: v if isinstance(v, str) else f"{v:+.12e}"  # noqa: E731
        lines = [f"identity {rec.id} [{mode}] tol={tol:g}\n"]
        for r in rows:
            lines.append(f"  x={_x_text(r['x'])}  lhs={side(r['lhs'])}  rhs={side(r['rhs'])}  dev={r['deviation']:.3e}  [{r['method']}]\n")
        if events:
            lines.append("  events: " + ", ".join(events) + "\n")
        lines.append(f"  {'PASS' if passed else 'FAIL'}: max deviation {deviation:.3e}\n")
        return "".join(lines)

    head = {"id": rec.id, "mode": mode, "tolerance": tol, "max_abs_deviation": deviation, "pass": passed, "pole_events": events}
    _write(out, args.format, head, rows, text, lambda r: {**r, "deviation": f"{r['deviation']:.6e}"}.values())
    return 0 if passed else 1


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


def _cmd_values(args, out) -> int:
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

    _write(out, args.format, {"kind": args.kind}, rows, text)
    return 0


# --terms bound of `extract`: the values it matches against, special_value's
# B_n and E_n, reach n of about 2 * terms (B_994 and E_992 here), within
# _VALUES_BOUND; at the bound a cold run of beta_cos_s0 or beta_sin_s1 takes
# 1.3-1.7 s, eq21_sin and sec4_cos 0.7-1.2 s on a 2-vCPU VM
_TERMS_BOUND = 497


def _cmd_extract(args, out) -> int:
    from . import operators, registry

    try:
        rec = registry.get_identity(args.id)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if not rec.extract:
        print(f"identity {args.id!r} has no exact polynomial right side to match against", file=sys.stderr)
        return 2
    if not 1 <= args.terms <= _TERMS_BOUND:
        print(f"--terms must be >= 1 and <= {_TERMS_BOUND}, got {args.terms}", file=sys.stderr)
        return 2
    rows = [{"argument": v.argument, "value": str(v.value) if isinstance(v.value, Fraction) else repr(v.value), "matched": v.matched}
            for v in operators.extract_special_values(rec, terms=args.terms)]
    kind = rec.kind

    def text() -> str:
        lines = [f"extraction from {args.id} (operator kind: {kind})\n"]
        lines += [f"  {kind}({r['argument']}) = {r['value']}  [{'matched' if r['matched'] else 'MISMATCH'}]\n" for r in rows]
        return "".join(lines)

    _write(out, args.format, {"id": args.id}, rows, text)
    return 0 if all(r["matched"] for r in rows) else 1


# size bounds of `matrix`: the triplet export prints about size * ln(size)
# lines (1.17M at the bound, in 0.19-0.21 s in process by the hyperbola split
# from a names table made by decades, each row joined once, with a 32 MB
# child); --apply prints size lines, made ten at a time from decades, in
# 24-30 ms for the dense column 1 at the bound and 2.2-2.9 ms for a sparse
# one; the check's closed form costs O(size), about 0.7-1.0 ms in process at
# its bound (n = 999 or 1000)
_MATRIX_SIZE_BOUND = 100_000
_CHECK_SIZE_BOUND = 1000


def _cmd_matrix(args, out) -> int:
    if not 1 <= args.size <= _MATRIX_SIZE_BOUND:
        print(f"--size must lie in [1, {_MATRIX_SIZE_BOUND}], got {args.size}", file=sys.stderr)
        return 2
    if args.apply is not None and not 1 <= args.apply <= args.size:
        print("--apply index must lie in [1, size]", file=sys.stderr)
        return 2
    if args.check is not None and not 1 <= args.check <= args.size:
        print("--check index must lie in [1, size]", file=sys.stderr)
        return 2
    if args.check is not None and args.size > _CHECK_SIZE_BOUND:
        print(f"--check needs --size <= {_CHECK_SIZE_BOUND}, got {args.size}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol > 0):
        print(f"--tol must be a finite number > 0, got {args.tol!r}", file=sys.stderr)
        return 2
    from . import divmatrix

    A = divmatrix.build_matrix(args.size)
    if args.apply is not None:
        out.writelines(A.column_blocks(args.apply))
        return 0
    if args.check is not None:
        report = divmatrix.consistency_check(args.check, args.size)
        ok = report.max_abs_deviation <= args.tol
        out.write(
            f"consistency n={args.check} size={args.size}: max deviation "
            f"{report.max_abs_deviation:.3e} ({'PASS' if ok else 'FAIL'} at tol {args.tol:g})\n"
        )
        return 0 if ok else 1
    out.writelines(A.triplet_rows())
    return 0


def _cmd_list(args, out) -> int:
    from . import registry

    reg = registry.load_registry()
    out.write(f"identity registry (version {registry.registry_version()})\n")
    for rec in reg.values():
        out.write(f"  {rec.id:<12} {rec.verify_mode:<9} {str(rec.domain):<16} {rec.summary}\n")
    return 0


def _grid_arg(text: str) -> tuple[float, float, int]:
    from . import registry

    try:
        return registry.parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be a:b:steps, got {text!r}") from exc


# read negative numeric tokens such as -1e6, -inf or a grid -1.4:1.4:3 as
# arguments, not as options (argparse's own test admits only plain decimals
# like -3 or -2.5)
_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The one parser of the process and each command's own parser by name,
    built on first use and only read after (parsing leaves them unchanged, so
    threads share them); do not modify them."""
    p = argparse.ArgumentParser(
        prog="opzeta",
        description="Verify dilation-operator series identities, print special values, and export the divisibility matrix.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="verify one registry identity on a grid (or exactly)")
    v.set_defaults(run=_cmd_verify)
    v.add_argument("id")
    v._negative_number_matcher = _NEGATIVE_NUMBER
    v.add_argument("--grid", type=_grid_arg, default=None, help="a:b:steps (default: registry profile)")
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--exact", action="store_true", help="exact comparison in Q[pi] where available")
    v.add_argument("--format", choices=("text", "json", "csv"), default="text")

    w = sub.add_parser("values", help="value table for zeta/beta/bernoulli/euler")
    w.set_defaults(run=_cmd_values)
    w.add_argument("kind", choices=("zeta", "beta", "bernoulli", "euler"))
    w.add_argument("args", nargs="+")
    w._negative_number_matcher = _NEGATIVE_NUMBER
    w.add_argument("--format", choices=("text", "json", "csv"), default="text")

    e = sub.add_parser("extract", help="solve special values by coefficient matching")
    e.set_defaults(run=_cmd_extract)
    e.add_argument("id")
    e.add_argument("--terms", type=int, default=6)
    e.add_argument("--format", choices=("text", "json", "csv"), default="text")

    m = sub.add_parser("matrix", help="divisibility matrix export / apply / consistency check")
    m.set_defaults(run=_cmd_matrix)
    m.add_argument("--size", type=int, required=True)
    action = m.add_mutually_exclusive_group()
    action.add_argument("--apply", type=int, default=None, metavar="N", help="apply to basis vector N")
    action.add_argument("--check", type=int, default=None, metavar="N", help="check column N against the sawtooth's Fourier coefficients")
    m.add_argument("--tol", type=float, default=1e-8)

    ls = sub.add_parser("list", help="list registry identities")
    ls.set_defaults(run=_cmd_list)
    return p, {"verify": v, "values": w, "extract": e, "matrix": m, "list": ls}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    try:
        # a command's own parser reads its arguments in one pass; the top-level
        # parser takes anything else (help, no command or an unknown one) and
        # reports leftover arguments, each as it always has
        command = commands.get(argv[0]) if argv else None
        args, leftover = command.parse_known_args(argv[1:]) if command is not None else (None, True)
        if leftover:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args, out)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OpzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`opzeta matrix --size 100000 | head -1`):
        # stdout goes to devnull, so that the interpreter's flush at exit stays
        # quiet, as the Python docs' note on SIGPIPE does it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
