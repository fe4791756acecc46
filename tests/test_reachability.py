"""Reachability by execution: every function of src/opzeta runs in some command
of the golden transcript (tests/data/cli_golden.txt), or `UNRUN` says why not.

A fresh child interpreter installs `sys.setprofile` before it imports opzeta
and replays every golden command through `cli.main`. The process must be
fresh: a `functools.cache` that an earlier test filled would hide the calls.
Each `def` and `lambda` counts as a function. Comprehensions do not, since
Python 3.12 inlines them. A function is named by its module and the classes
and functions around it. A lambda is named `<lambda>`, or `<lambda k>` for
the k-th in source order where its scope holds several.

Print each function that no command runs, with its reason:

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli_golden import read_golden

SRC = Path(__file__).resolve().parent.parent / "src" / "opzeta"

_COMPLEX_SHIFTS = "a complex shift (ROADMAP items 7 and 11); every shift a command takes is real"
_REPLACE = "`_replace` builds through `__new__` so that it runs the checks; no command replaces a field"
_TRIG = "ROADMAP items 6 and 7; no command builds a trig atom"

# the functions that no golden command runs, each with the reason it stays
UNRUN = {
    "opzeta.__dir__": "public entry point: `dir(opzeta)`",
    "opzeta.cli.entry": "public entry point: the console script, which calls `cli.main`",
    "opzeta.cli.entry.<lambda>": "the console script's one-line warning format, set in `entry`, which the golden replay does not call",
    "opzeta.divmatrix.DivisibilityMatrix.nnz": "bench/spans.py (`COUNTS`) reads it until ROADMAP item 2",
    "opzeta.pipoly._Poly.__setattr__": "error path: a polynomial is immutable",
    "opzeta.pipoly._Poly.__hash__": "equal values must hash equal; no command hashes a polynomial",
    "opzeta.pipoly.PiPolynomial.__hash__": "equal values must hash equal; no command hashes a polynomial",
    "opzeta.pipoly._Poly.__neg__": "ring arithmetic of a polynomial; no command negates or subtracts one",
    "opzeta.pipoly._Poly.__sub__": "ring arithmetic of a polynomial; no command negates or subtracts one",
    "opzeta.operators.DilationShift.<lambda>": _REPLACE,
    "opzeta.operators.TrigAtom.<lambda>": _REPLACE,
    "opzeta.operators.SingularTerm.<lambda>": _REPLACE,
    "opzeta.series.TrigSeries.<lambda>": _REPLACE,
    "opzeta.operators.TrigAtom.__new__": _TRIG,
    "opzeta.operators.Expression.from_trig": _TRIG,
    "opzeta.specfun._arith.<lambda 2>": _COMPLEX_SHIFTS,
    "opzeta.specfun._arith.<lambda 3>": _COMPLEX_SHIFTS,
    "opzeta.specfun.recip_gamma": "1/Gamma at a non-integer: the branch terms of ROADMAP items 4a and 7 need it",
    "opzeta.series.partial_sums_accelerated.<lambda>":
        "the sum route of the beta character, which the registry uses; its beta ids verify by the Abel route",
}

# replays each argv of the JSON list argv[1] through cli.main under a profiler;
# prints the exit codes, then every (file, first line, name) of a called code object
_REPLAY = """
import io, json, sys
called = set()
def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(profile)
import opzeta.cli as cli
codes = [cli.main(argv, out=io.StringIO()) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps(codes))
print(json.dumps(sorted(called)))
"""


def functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, code name) -> qualified name of every def and lambda
    under SRC, in source order. A decorated def starts at its first decorator,
    as its code object does."""
    found = {}

    def visit(node: ast.AST, scope: str, path: Path) -> None:
        own = _own_nodes(node)
        lambdas = [n for n in own if isinstance(n, ast.Lambda)]
        for child in own:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    _add(found, (str(path), line, child.name), name)
                visit(child, name, path)
            elif isinstance(child, ast.Lambda):
                k = f" {lambdas.index(child) + 1}" if len(lambdas) > 1 else ""
                name = f"{scope}.<lambda{k}>"
                _add(found, (str(path), child.lineno, "<lambda>"), name)
                visit(child, name, path)

    for path in sorted(SRC.glob("*.py")):
        module = "opzeta" if path.stem == "__init__" else f"opzeta.{path.stem}"
        visit(ast.parse(path.read_text(encoding="utf-8")), module, path)
    return found


def _own_nodes(node: ast.AST) -> list[ast.AST]:
    """The defs, classes and lambdas directly in node's scope, in source order:
    the descendants of node not inside another of them."""
    out, stack = [], list(reversed(list(ast.iter_child_nodes(node))))
    while stack:
        n = stack.pop()
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            out.append(n)
        else:
            stack.extend(reversed(list(ast.iter_child_nodes(n))))
    return out


def _add(found: dict, key: tuple[str, int, str], name: str) -> None:
    assert key not in found, f"{found[key]} and {name} start on one line: the profile cannot tell them apart"
    found[key] = name


def replay() -> set[tuple[str, int, str]]:
    """The (file, first line, code name) of every function that the golden
    commands call, in a fresh child interpreter."""
    golden = read_golden()
    proc = subprocess.run(
        [sys.executable, "-c", _REPLAY, json.dumps([argv for argv, _, _ in golden])],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), *sys.path])},
    )
    assert proc.returncode == 0, proc.stderr
    *_, codes, called = proc.stdout.splitlines()
    assert json.loads(codes) == [code for _, _, code in golden], "the replay did not run the transcript"
    return {tuple(key) for key in json.loads(called)}


def unrun() -> list[str]:
    """The qualified name of each function that no golden command runs, in source order."""
    called = replay()
    return [name for key, name in functions().items() if key not in called]


@pytest.fixture(scope="module")
def not_run() -> list[str]:
    return unrun()


def test_every_function_runs_in_a_command_or_is_listed(not_run):
    assert sorted(set(not_run) - set(UNRUN)) == []


def test_every_listed_function_exists_and_runs_in_no_command(not_run):
    names = set(functions().values())
    assert sorted(name for name in UNRUN if name not in names) == [], "listed but gone"
    assert sorted(name for name in UNRUN if name in names and name not in not_run) == [], "listed but run"


if __name__ == "__main__":
    for name in unrun():
        print(f"{name}: {UNRUN.get(name, 'NOT LISTED: no command runs it and no reason is given')}")
