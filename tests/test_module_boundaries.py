"""Each module of the package keeps its underscore names to itself: no module
under src/opzeta imports another module's private name or reads one as an
attribute, so a private name can change without a search of the package. And
no module imports dataclasses, whose import and generated methods cost every
cold command more than the records they build."""

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
    assert len(MODULES) == 8
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
