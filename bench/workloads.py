"""Seeded workloads: the opzeta command lines each one runs, and the checks
that hold each output against the benchmark's own references.

A workload yields blocks of ops; the runner stops at a block boundary.
Every input property that sets an op's cost (grid steps and range, argument
values, matrix sizes, Bernoulli/Euler indices) is drawn by stratified
sampling across one block: each block covers the whole range of
each property evenly, in a seeded order and with seeded jitter inside each
stratum. Runs with different seeds therefore do different work of the same
distribution, which keeps medians and percentiles steady across seeds.

The runner draws a fixed number of blocks, and with them every reference,
before timing starts, and cycles through them if a run needs more.
"""

from __future__ import annotations

import configparser
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional

import reference

# opzeta 0.1.0 exits 1 with an OverflowError traceback on these (cli_cold)
KNOWN_OVERFLOWS = (
    "values bernoulli n, even n >= 260",
    "values euler n, even n >= 188",
    "values zeta -k, odd k >= 261",
    "values beta -n, even n >= 188",
)

# Check signature: check(stdout, sink) -> None when the output is right, else
# the reason it is wrong. `sink` collects (|error|, printed bound) pairs of
# numeric values for the specfun bound metrics.
Check = Callable[[str, list], Optional[str]]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    build: Callable  # (rng, registry, version) -> iterator of blocks (lists of Op)


def read_registry(root: Path) -> tuple[int, dict[str, dict]]:
    """The benchmark's own reading of the identity data file."""
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.optionxform = str
    cfg.read_string((root / "src" / "opzeta" / "data" / "identities.cfg").read_text(encoding="utf-8"))
    out = {}
    for sec in cfg.sections():
        if sec == "meta":
            continue
        block = cfg[sec]
        lhs = block["lhs"].split()
        rec = {
            "id": sec,
            "mode": block["verify_mode"],
            "grid": tuple(float(t) for t in block["default_grid"].split(":")),
            "tol": float(block["default_tol"]),
            "extract": block.get("extract", "no") == "yes",
            "event": block.get("expected_event"),
            "gamma_shift": int(block["gamma_shift"]) if "gamma_shift" in block else None,
        }
        if lhs[0] == "operator":
            kv = dict(p.split("=", 1) for p in lhs[2:])
            rec.update(kind=lhs[1], shift=int(kv["shift"]), trig=kv["trig"])
        out[sec] = rec
    return cfg.getint("meta", "version"), out


def strata(rng: random.Random, n: int) -> list[float]:
    """n uniforms in [0, 1), one per stratum [i/n, (i+1)/n), in seeded order."""
    order = list(range(n))
    rng.shuffle(order)
    return [(i + rng.random()) / n for i in order]


def _int_strata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [lo + min(hi - lo, int(u * (hi - lo + 1))) for u in strata(rng, n)]


def _recurrence_strata(rng: random.Random, n: int, lo: int, hi: int, runs: Callable[[int], bool]) -> list[int]:
    """Like _int_strata, but each value moved by one where needed so that
    `runs(value)` holds: the argument then needs a Bernoulli or Euler number
    that is not trivially zero, and its cold recurrence runs. That gives a
    block a fixed share of ops whose cost grows with the argument, so p90
    falls among them rather than in the noise of the ops that cost only the
    interpreter start."""
    out = []
    for v in _int_strata(rng, n, lo, hi):
        if not runs(v):
            v = v + 1 if v < hi else v - 1
        out.append(v)
    return out


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except ValueError as exc:
        return None, f"output is not JSON: {exc}"


# --- verify_registry -----------------------------------------------------------

SWEEPS_PER_BLOCK = 6


def _linspace(a: float, b: float, steps: int) -> list[float]:
    if steps == 1:
        return [a]
    return [a + (b - a) * i / (steps - 1) for i in range(steps)]


def check_verify(stdout: str, sink: list, rid: str, tol: float, grid) -> Optional[str]:
    rep, err = _parse(stdout)
    if err:
        return err
    if rep.get("id") != rid or rep.get("pass") is not True:
        return f"{rid}: pass={rep.get('pass')}"
    if not rep["max_abs_deviation"] <= tol:
        return f"{rid}: max deviation {rep['max_abs_deviation']} above {tol}"
    rows = rep["rows"]
    if grid is None:
        if not rows or any(r["deviation"] != 0.0 or r["lhs"] != r["rhs"] for r in rows):
            return f"{rid}: exact rows differ"
        return None
    xs = [r["x"] for r in rows if r["x"] is not None]
    want = _linspace(*grid)
    if len(xs) != len(want) or any(abs(x - w) > 1e-12 for x, w in zip(xs, want)):
        return f"{rid}: {len(xs)} grid rows, expected {len(want)}"
    if any(not r["deviation"] <= tol for r in rows):
        return f"{rid}: a row deviates beyond {tol}"
    return None


def _verify_registry(rng: random.Random, reg: dict, version: int) -> Iterator[list[Op]]:
    # Grid-mode ids get a seeded grid inside the default range: the start in
    # its lowest quarter, the end in its highest quarter, half to all of the
    # default steps. Exact-mode ids take no --grid.
    while True:
        draws = {rid: [strata(rng, SWEEPS_PER_BLOCK) for _ in range(3)] for rid in reg}
        block = []
        for sweep in range(SWEEPS_PER_BLOCK):
            order = list(reg)
            rng.shuffle(order)
            for rid in order:
                rec = reg[rid]
                if rec["mode"] == "exact":
                    block.append(Op(("verify", rid, "--format", "json"),
                                    partial(check_verify, rid=rid, tol=rec["tol"], grid=None)))
                    continue
                a0, b0, d = rec["grid"]
                d = int(d)
                us, ua, ub = (draws[rid][k][sweep] for k in range(3))
                lo = (d + 1) // 2
                steps = lo + min(d - lo, int(us * (d - lo + 1)))
                a = a0 + ua * (b0 - a0) / 4
                b = b0 - ub * (b0 - a0) / 4
                block.append(Op(("verify", rid, "--grid", f"{a!r}:{b!r}:{steps}", "--format", "json"),
                                partial(check_verify, rid=rid, tol=rec["tol"], grid=(a, b, steps))))
        yield block


# --- values (shared by values_numeric and cli_cold) ---------------------------

NUMERIC_METHOD = {"zeta": "euler_maclaurin", "beta": "hurwitz_difference"}


def _double(q) -> Optional[float]:
    """float(q), or None where q lies beyond the double range."""
    try:
        return float(q)
    except OverflowError:
        return None


def _value_ref(kind: str, token: str, tables: reference.ExactTables):
    """What `values <kind> <token>` must print, decided by the benchmark."""
    v = float(token)
    if v == int(v):
        k = int(v)
        if kind == "bernoulli":
            return "exact", str(tables.bernoulli[k]), _double(tables.bernoulli[k])
        if kind == "euler":
            return "exact", str(tables.euler[k]), _double(tables.euler[k])
        hit = tables.zeta_exact(k) if kind == "zeta" else tables.beta_exact(k)
        if hit is not None:
            tag, val = hit
            if tag == "pole":
                return ("pole",)
            if tag == "pi":
                return "pi", reference.pi_term(*val), reference.pi_term_value(*val), val[1]
            return "exact", str(val), _double(val)
    ref = reference.zeta_value(v) if kind == "zeta" else reference.beta_value(v)
    return "numeric", ref


def _check_row(row: dict, kind: str, ref) -> Optional[str]:
    tag = ref[0]
    if tag == "pole":
        ok = row["value"] is None and row["method"] == "pole"
    elif tag == "exact":
        # float(Fraction) rounds correctly, so the double must match exactly;
        # beyond the double range only the exact text is checked
        ok = (row["method"] == "exact" and row["exact"] == ref[1]
              and (ref[2] is None or row["value"] == ref[2]))
    elif tag == "pi":
        # opzeta evaluates with the double math.pi: relative error ~ k ulp
        k = ref[3]
        ok = (row["method"] == "exact" and row["exact"] == ref[1]
              and abs(row["value"] - ref[2]) <= (k * 1e-16 + 1e-15) * abs(ref[2]))
    else:
        ok = (row["method"] == NUMERIC_METHOD[kind] and row["value"] is not None
              and abs(row["value"] - ref[1]) <= row["abs_error"])
    return None if ok else f"{kind}({row['argument']}): {row} vs reference {ref}"


def check_values(stdout: str, sink: list, kind: str, tokens: tuple, refs: tuple) -> Optional[str]:
    rep, err = _parse(stdout)
    if err:
        return err
    rows = rep.get("rows", [])
    if rep.get("kind") != kind or [r["argument"] for r in rows] != list(tokens):
        return f"values {kind}: rows {[r.get('argument') for r in rows]} for {list(tokens)}"
    for row, ref in zip(rows, refs):
        bad = _check_row(row, kind, ref)
        if bad:
            return bad
        if ref[0] == "numeric":
            sink.append((abs(row["value"] - ref[1]), row["abs_error"]))
    return None


def _values_op(kind: str, tokens: list[str], refs: dict) -> Op:
    return Op(("values", kind, *tokens, "--format", "json"),
              partial(check_values, kind=kind, tokens=tuple(tokens), refs=tuple(refs[t] for t in tokens)))


# --- values_numeric --------------------------------------------------------------

S_MIN, S_MAX = -25, 12          # the validated domain of zeta_em / dirichlet_beta
OPS_PER_KIND = 32               # per block; argument counts 1..4, eight of each
INTEGER_SHARE = 5               # one argument in five is an integer


def _fixed_point_tokens(rng: random.Random, n: int) -> list[str]:
    tokens = []
    for i, u in enumerate(strata(rng, n)):
        s = S_MIN + u * (S_MAX - S_MIN)
        if i % INTEGER_SHARE == 0:
            tokens.append(str(round(s)))
            continue
        x = round(s, 3)
        if x == round(x):
            x += 0.001 if x < S_MAX else -0.001
        tokens.append(f"{x:.3f}")
    return tokens


def _values_numeric(rng: random.Random, reg: dict, version: int) -> Iterator[list[Op]]:
    # Each block uses every argument of a seeded pool once per kind, in ops of
    # 1 to 4 arguments. The integers (exact route, next to free) go one each
    # to the 3- and 4-argument ops, so op cost grows with the count of
    # non-integers (1, 2, 2, 3) rather than with a random integer share.
    tables = reference.ExactTables(40)
    counts = [1, 2, 3, 4] * (OPS_PER_KIND // 4)
    pools = {kind: _fixed_point_tokens(rng, sum(counts)) for kind in ("zeta", "beta")}
    refs = {kind: {t: _value_ref(kind, t, tables) for t in pool} for kind, pool in pools.items()}

    def blocks():
        while True:
            block = []
            for kind, pool in pools.items():
                ints = [t for t in pool if "." not in t]
                fracs = [t for t in pool if "." in t]
                rng.shuffle(ints)
                rng.shuffle(fracs)
                sizes = list(counts)
                rng.shuffle(sizes)
                for size in sizes:
                    args = [ints.pop()] if size >= 3 else []
                    args += [fracs.pop() for _ in range(size - len(args))]
                    rng.shuffle(args)
                    block.append(_values_op(kind, args, refs[kind]))
            rng.shuffle(block)
            yield block

    return blocks()


# --- matrix_ops --------------------------------------------------------------------

MATRIX_STRATA = 16
APPLY_SIZES = (1000, 10000)
CHECK_SIZES = (16, 96)
TRIPLET_SIZES = (200, 3000)


def check_apply(stdout: str, sink: list, size: int, n: int) -> Optional[str]:
    lines = stdout.splitlines()
    if len(lines) != size:
        return f"apply: {len(lines)} lines for size {size}"
    for m, line in enumerate(lines, start=1):
        want = f"{m} 1/{m // n}" if m % n == 0 else f"{m} 0/1"
        if line != want:
            return f"apply column {n}, row {m}: {line!r}, expected {want!r}"
    return None


def check_consistency(stdout: str, sink: list, size: int, n: int) -> Optional[str]:
    want = f"consistency n={n} size={size}: max deviation "
    if not stdout.startswith(want) or "(PASS at tol" not in stdout:
        return f"check: {stdout.strip()!r}"
    return None


def check_triplets(stdout: str, sink: list, size: int, nnz: int) -> Optional[str]:
    lines = stdout.splitlines()
    if len(lines) != nnz:
        return f"triplets: {len(lines)} lines, expected {nnz}"
    for line in lines[:: max(1, nnz // 64)]:
        m, n, num, den = (int(t) for t in line.split())
        if m % n or Fraction(num, den) != Fraction(n, m):
            return f"triplet {line!r} is not (m, n, n/m) with n | m"
    return None


def _matrix_ops(rng: random.Random, reg: dict, version: int) -> Iterator[list[Op]]:
    # apply, consistency check and triplet export, 16 of each per block with
    # sizes stratified over each kind's range
    while True:
        block = []
        for size in _int_strata(rng, MATRIX_STRATA, *APPLY_SIZES):
            n = rng.randint(1, size)
            block.append(Op(("matrix", "--size", str(size), "--apply", str(n)),
                            partial(check_apply, size=size, n=n)))
        for size in _int_strata(rng, MATRIX_STRATA, *CHECK_SIZES):
            n = rng.randint(1, size)
            block.append(Op(("matrix", "--size", str(size), "--check", str(n)),
                            partial(check_consistency, size=size, n=n)))
        for size in _int_strata(rng, MATRIX_STRATA, *TRIPLET_SIZES):
            nnz = sum(size // n for n in range(1, size + 1))
            block.append(Op(("matrix", "--size", str(size)), partial(check_triplets, size=size, nnz=nnz)))
        rng.shuffle(block)
        yield block


# --- cli_cold ------------------------------------------------------------------------

COLD_STRATA = 16
COLD_MAX = 400
TERMS = (6, 40)

# the arguments of `values <kind>` that need a nonzero Bernoulli or Euler
# number: B_n and E_n for even n, zeta(k) = rational * B_k * pi^k for even
# k > 0, zeta(-k) = -B_{k+1}/(k+1) for odd k, beta(-n) = E_n/2 for even n
# and beta(k) = rational * E_{k-1} * pi^k for odd k > 0
RECURRENCE = {
    "bernoulli": lambda n: n % 2 == 0,
    "euler": lambda n: n % 2 == 0,
    "zeta": lambda k: k % 2 == (0 if k > 0 else 1),
    "beta": lambda k: k % 2 == (1 if k > 0 else 0),
}


def check_list(stdout: str, sink: list, version: int, ids: tuple) -> Optional[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != f"identity registry (version {version})":
        return f"list header {lines[:1]}"
    if tuple(line.split()[0] for line in lines[1:]) != ids:
        return "list ids differ from the data file"
    return None


def check_extract(stdout: str, sink: list, rid: str, rows: tuple) -> Optional[str]:
    rep, err = _parse(stdout)
    if err:
        return err
    got = tuple((r["argument"], r["value"], r["matched"]) for r in rep.get("rows", []))
    if rep.get("id") != rid or got != rows:
        return f"extract {rid}: {got[:3]}... expected {rows[:3]}..."
    return None


def check_exact_verify(stdout: str, sink: list, rid: str, event: Optional[str]) -> Optional[str]:
    bad = check_verify(stdout, sink, rid, 0.0, None)
    if bad:
        return bad
    if event is not None and event not in json.loads(stdout)["pole_events"]:
        return f"{rid}: event {event} not reported"
    return None


def _extract_rows(rec: dict, terms: int, tables: reference.ExactTables) -> tuple:
    start = 1 if rec["trig"] == "sin" else 0
    rows = []
    for d in range(start, start + 2 * terms, 2):
        if rec["gamma_shift"] is not None and rec["gamma_shift"] + d <= 0:
            continue
        arg = rec["shift"] - d
        tag, val = tables.zeta_exact(arg) if rec["kind"] == "zeta" else tables.beta_exact(arg)
        rows.append((arg, reference.pi_term(*val) if tag == "pi" else str(val), True))
    return tuple(rows)


def _cli_cold(rng: random.Random, reg: dict, version: int) -> Iterator[list[Op]]:
    # one block: 16 rounds of list, values bernoulli/euler/zeta/beta,
    # extract and verify --exact; integer arguments stratified over
    # 0..400 (bernoulli, euler) and -400..400 (zeta, beta), each of the
    # parity whose Bernoulli/Euler number is not trivially zero
    tables = reference.ExactTables(COLD_MAX + 2)
    exact_ids = [rid for rid, rec in reg.items() if rec["extract"]]
    list_op = Op(("list",), partial(check_list, version=version, ids=tuple(reg)))
    while True:
        args = {
            "bernoulli": _recurrence_strata(rng, COLD_STRATA, 0, COLD_MAX, RECURRENCE["bernoulli"]),
            "euler": _recurrence_strata(rng, COLD_STRATA, 0, COLD_MAX, RECURRENCE["euler"]),
            "zeta": _recurrence_strata(rng, COLD_STRATA, -COLD_MAX, COLD_MAX, RECURRENCE["zeta"]),
            "beta": _recurrence_strata(rng, COLD_STRATA, -COLD_MAX, COLD_MAX, RECURRENCE["beta"]),
        }
        terms = _int_strata(rng, COLD_STRATA, *TERMS)
        block = []
        for i in range(COLD_STRATA):
            block.append(list_op)
            for kind, values in args.items():
                token = str(values[i])
                block.append(_values_op(kind, [token], {token: _value_ref(kind, token, tables)}))
            rid = rng.choice(exact_ids)
            block.append(Op(("extract", rid, "--terms", str(terms[i]), "--format", "json"),
                            partial(check_extract, rid=rid, rows=_extract_rows(reg[rid], terms[i], tables))))
            rid = rng.choice(exact_ids)
            block.append(Op(("verify", rid, "--exact", "--format", "json"),
                            partial(check_exact_verify, rid=rid, event=reg[rid]["event"])))
        rng.shuffle(block)
        yield block


# why each workload exists: see README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_registry", True, _verify_registry),
        Workload("values_numeric", True, _values_numeric),
        Workload("matrix_ops", True, _matrix_ops),
        Workload("cli_cold", False, _cli_cold),
    )
}


def build(name: str, rng: random.Random, root: Path) -> Iterator[list[Op]]:
    version, reg = read_registry(root)
    return WORKLOADS[name].build(rng, reg, version)
