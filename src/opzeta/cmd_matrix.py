"""`opzeta matrix --size N`: the divisibility matrix as triplets, one column
(`--apply`) or a column's consistency check against the sawtooth's Fourier
coefficients (`--check`). `cli` imports this module only when it dispatches
to `matrix`; it loads `divmatrix`, and `--check` `exactnum` and `pipoly` too.
"""

from __future__ import annotations

import math
import sys


def arguments(p) -> None:
    p.add_argument("--size", type=int, required=True)
    action = p.add_mutually_exclusive_group()
    action.add_argument("--apply", type=int, default=None, metavar="N", help="apply to basis vector N")
    action.add_argument("--check", type=int, default=None, metavar="N", help="check column N against the sawtooth's Fourier coefficients")
    p.add_argument("--tol", type=float, default=1e-8)


# size bounds of `matrix`: the triplet export prints about size * ln(size)
# lines (1.17M at the bound, in 0.19-0.21 s in process by the hyperbola split
# from a names table made by decades, each row joined once, with a 32 MB
# child); --apply prints size lines, made ten at a time from decades, in
# 24-30 ms for the dense column 1 at the bound and 2.2-2.9 ms for a sparse
# one; the check's closed form costs O(size), about 0.7-1.0 ms in process at
# its bound (n = 999 or 1000)
_MATRIX_SIZE_BOUND = 100_000
_CHECK_SIZE_BOUND = 1000


def run(args, out) -> int:
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
