"""`opzeta verify ID`: one registry identity on a grid, by the sum or Abel
route of `series`, or exactly in Q[pi] (`--exact`, or an identity of verify
mode exact), through the operator engine. `cli` imports this module only when
it dispatches to `verify`; a grid run loads `registry`, `exactnum`, `pipoly`
(the right side's polynomial) and `series`, an exact run `registry`,
`exactnum`, `pipoly` and `operators`. A grid identity's right side is built
once per identity.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from typing import Callable, Optional

from .cli import FORMATS, NEGATIVE_NUMBER, write_result
from .errors import OpzetaError

_EXACT_K = 12
# bound of `verify --grid`'s steps (the registry's largest is 50); the head
# terms a sum-mode grid sums are bounded in `series.partial_sums_accelerated`
_GRID_STEPS_BOUND = 10_000


def _grid_arg(text: str) -> tuple[float, float, int]:
    from . import registry

    try:
        return registry.parse_grid(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be a:b:steps, got {text!r}") from exc


def arguments(p) -> None:
    p.add_argument("id")
    p._negative_number_matcher = NEGATIVE_NUMBER
    p.add_argument("--grid", type=_grid_arg, default=None, help="a:b:steps (default: registry profile)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--exact", action="store_true", help="exact comparison in Q[pi] where available")
    p.add_argument("--format", choices=FORMATS, default="text")


def _row(identity: str, x, lhs, rhs, deviation: float, method: str) -> dict:
    return {"id": identity, "x": x, "lhs": lhs, "rhs": rhs, "deviation": deviation, "method": method}


def _verify_exact(rec: registry.IdentityRecord) -> tuple[list[dict], float, list[str]]:
    """Exact-equality verification in Q[pi] -> (rows, max deviation, pole
    events); the deviation is 0.0 on equality and inf otherwise."""
    from .operators import Expression, apply_recip_gamma_op, taylor_flow
    from .pipoly import clausen_closed_form
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
    from .pipoly import pipoly_evaluator

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


def _x_text(x: Optional[float]) -> str:
    """`verify`'s text x: fixed point, unless a nonzero x would print as zero."""
    return "-" if x is None else f"{x:.6f}" if x == 0 or abs(x) >= 1e-3 else f"{x:.6e}"


def run(args, out) -> int:
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
    write_result(out, args.format, head, rows, text, lambda r: {**r, "deviation": f"{r['deviation']:.6e}"}.values())
    return 0 if passed else 1
