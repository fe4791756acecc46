"""`opzeta extract ID`: solve an identity's special values by coefficient
matching in Q[pi]. `cli` imports this module only when it dispatches to
`extract`; it loads `registry`, `exactnum`, `pipoly` and `operators`.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .cli import FORMATS, write_result


def arguments(p) -> None:
    p.add_argument("id")
    p.add_argument("--terms", type=int, default=6)
    p.add_argument("--format", choices=FORMATS, default="text")


# --terms bound of `extract`: the values it matches against, special_value's
# B_n and E_n, reach n of about 2 * terms (B_994 and E_992 here), within
# the |argument| bound of `values`; at the bound a cold run of beta_cos_s0 or beta_sin_s1 takes
# 1.3-1.7 s, eq21_sin and sec4_cos 0.7-1.2 s on a 2-vCPU VM
_TERMS_BOUND = 497


def run(args, out) -> int:
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

    write_result(out, args.format, {"id": args.id}, rows, text)
    return 0 if all(r["matched"] for r in rows) else 1
