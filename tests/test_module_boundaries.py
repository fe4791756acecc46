"""Each module of the package keeps its underscore names to itself: no module
under src/opzeta imports another module's private name or reads one as an
attribute, so a private name can change without a search of the package. No
module imports dataclasses, whose import and generated methods cost every
cold command more than the records they build. And no module holds a
precision in an mpmath context or in thread-local state: the numeric kernels
compute on raw values at an explicit precision. Each name of the registry's
right sides is spelled once in the package, and so are the characters a
series takes (`registry.SERIES_CHARACTERS`), every process-wide memo is
listed in `MEMOS` with the reason it stays, and the operator engine imports
no layer of the package but `errors` and the exact layer (`exactnum` and its
polynomials, `pipoly`). No command module imports another, so a cold command
compiles no other command's code, and `pipoly` imports no layer but `errors`
and `exactnum`.

Print each memo with its reason, then each error type with the functions of
the package that raise it:

    PYTHONPATH=src python tests/test_module_boundaries.py
"""

import ast
from pathlib import Path

import opzeta

SRC = Path(opzeta.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _crossings(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("opzeta")):
            found += [f"from {node.module} import {a.name}" for a in node.names if _private(a.name)]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in MODULES and node.value.id != path.stem and _private(node.attr):
                found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert len(MODULES) == 13
    crossings = {path.name: found for path in sorted(SRC.glob("*.py")) if (found := _crossings(path))}
    assert crossings == {}


def _imports_dataclasses(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            return True
    return False


def test_no_module_imports_dataclasses():
    assert [path.name for path in sorted(SRC.glob("*.py")) if _imports_dataclasses(path)] == []


# names that create or switch an mpmath context's precision, or thread-local state
_CONTEXT_NAMES = {"MPContext", "workdps", "workprec", "extradps", "extraprec"}
_CONTEXT_ATTRIBUTES = {("mpmath", "mp"), ("threading", "local")}


def _context_state(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module in ("mpmath", "threading"):
            found += [f"from {node.module} import {a.name}" for a in node.names
                      if a.name in _CONTEXT_NAMES or (node.module, a.name) in _CONTEXT_ATTRIBUTES]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr in _CONTEXT_NAMES or (owner, node.attr) in _CONTEXT_ATTRIBUTES:
                found.append(f"{owner}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in _CONTEXT_NAMES:
            found.append(node.id)
    return found


def test_no_module_creates_an_mpmath_context_or_thread_local_state():
    found = {path.name: names for path in sorted(SRC.glob("*.py")) if (names := _context_state(path))}
    assert found == {}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _names_used(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name read as a variable or an attribute under node, outside skip."""
    found, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def test_every_public_definition_is_used_in_the_package():
    # a re-export in __init__'s table of layers is a string, not a use
    trees = _trees()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(node.name in _names_used(other, skip=node) for other in trees.values()):
                unused.append(f"{module}.{node.name}")
    assert unused == []


def _called_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_error_type_is_raised_in_the_package():
    # OpzetaError is the base the others share; a warning type is issued by warnings.warn
    from opzeta import errors

    raised, warned = set(), set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_called_name(node.exc))
            elif isinstance(node, ast.Call) and _called_name(node) == "warn":
                warned.update(_called_name(arg) for arg in node.args[1:2])
    types = [obj for obj in vars(errors).values() if isinstance(obj, type) and obj.__module__ == errors.__name__]
    error_types = {t.__name__ for t in types if issubclass(t, errors.OpzetaError)} - {"OpzetaError"}
    warning_types = {t.__name__ for t in types if issubclass(t, Warning)}
    assert error_types - raised == set()
    assert warning_types - warned == set()


def raisers() -> dict[str, list[str]]:
    """Each error type of `errors` but the base -> the module.function of
    every function of the package that raises it, in source order."""
    from opzeta import errors

    found = {name: [] for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.OpzetaError) and obj is not errors.OpzetaError}

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                name = _called_name(child.exc)
                if name in found and where not in found[name]:
                    found[name].append(where)
            visit(child, where)

    for module, tree in _trees().items():
        visit(tree, module)
    return found


def _package_imports(path: Path) -> set[str]:
    """The modules of the package that `path` imports, at its top or inside a function."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "opzeta"):
            module = (node.module or "").removeprefix("opzeta").lstrip(".")
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("opzeta."))
    return found


def test_the_engine_imports_only_errors_and_exactnum():
    # the operator engine takes the registry record from its caller and names
    # a series by its parity, exponent and kind, so it reads neither layer;
    # `pipoly`, the polynomials of the exact layer, counts with `exactnum`
    assert sorted(_package_imports(SRC / "operators.py") - {"errors", "exactnum", "pipoly"}) == []


COMMAND_MODULES = {f"cmd_{command}" for command in ("verify", "values", "extract", "matrix")}


def test_no_command_module_imports_another():
    # cli imports a command's module only when it dispatches to that command;
    # a command module that imported another would compile its code too
    assert COMMAND_MODULES <= MODULES
    found = {name: sorted(_package_imports(SRC / f"{name}.py") & (COMMAND_MODULES - {name})) for name in sorted(COMMAND_MODULES)}
    assert found == dict.fromkeys(sorted(COMMAND_MODULES), [])


def test_the_polynomials_import_only_errors_and_exactnum():
    assert sorted(_package_imports(SRC / "pipoly.py") - {"errors", "exactnum"}) == []


def test_each_right_side_name_is_spelled_once():
    # the registry's tables are the one definition of each name; a second
    # spelling in the package would be a copy to keep equal
    from opzeta import registry

    constants = [node.value for tree in _trees().values() for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    names = [*registry.CLOSED_FORMS, *registry.TAYLOR_GENERATORS, *registry._EXTRA_CHECKS, *registry._VOCABULARY["expected_event"]]
    assert {name: constants.count(name) for name in names} == dict.fromkeys(names, 1)


def test_the_series_characters_are_spelled_once():
    # `registry.SERIES_CHARACTERS` is the one spelling of the characters a
    # series takes: a literal that holds them all, or a text that quotes them
    # all, anywhere else is a copy to keep equal
    characters = {"trivial", "beta"}
    spelled = []
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
                items = node.values if isinstance(node, ast.Dict) else node.elts
                held = {item.value for item in items if isinstance(item, ast.Constant)}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                held = {c for c in characters if f"'{c}'" in node.value}
            else:
                continue
            if characters <= held:
                spelled.append(module)
    assert spelled == ["registry"]


# every process-wide memo (functools.cache or lru_cache) of the package, with
# the reason it stays; each is built on first use and then only read, but for
# the bounded memo of logarithms
MEMOS = {
    "cli._parser": "each command's own argparse parser and the two-level one, each built once per process",
    "cmd_verify._rhs_evaluator": "a grid identity's right side, its coefficients at pi once, then Horner per x",
    "exactnum._pi_block": "pi in blocks of 1,024 bits, which the large numbers and the Q[pi] values shift down",
    "exactnum._small_numbers": "B_0..B_82 and E_0..E_82 by the exact recurrences, one immutable table",
    "registry._parse_registry": "the data file, parsed once per process",
    "specfun._arith": "the libmp operations of a real and of a complex s, picked once",
    "specfun._em_coefficients": "the Euler-Maclaurin coefficients B_2k/(2k)!",
    "specfun._ln": "mpmath's log(a/b) per integer pair and precision, held as a fixed-point integer, bounded to 8,192 entries",
}


def memos() -> list[str]:
    """module.function of every function of the package under a memo
    decorator, module by module."""
    return [f"{module}.{node.name}" for module, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any(_called_name(d) in ("cache", "lru_cache") for d in node.decorator_list)]


def test_every_memo_is_listed():
    found = memos()
    assert sorted(set(found) - set(MEMOS)) == [], "a memo with no reason given"
    assert sorted(set(MEMOS) - set(found)) == [], "listed but gone"


if __name__ == "__main__":
    for name in memos():
        print(f"{name}: {MEMOS.get(name, 'NOT LISTED: no reason is given')}")
    print("error types of src/opzeta, each with the functions that raise it:")
    for name, functions in raisers().items():
        print(f"{name}: {', '.join(functions) or 'NOT RAISED'}")
