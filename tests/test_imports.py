"""Every name a grpoly module, test or script imports is used in that
file, every module-level private function or class of a grpoly module is
referenced outside its own body, and every public one is named somewhere
other than its own definition: in its module, another module, or the
scripts, benchmark or tests.  A re-export in ``__init__`` does not count.
Only the modules that turn JSON objects into text, or text into them,
import ``json``."""

import ast
import re
from pathlib import Path

import pytest

import grpoly

MODULES = sorted(p for p in Path(grpoly.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export
ROOT = Path(__file__).resolve().parent.parent
USERS = sorted(p for folder in ("scripts", "perfbench", "tests")
               for p in (ROOT / folder).rglob("*.py"))
IMPORTERS = MODULES + sorted(p for folder in ("tests", "scripts")
                             for p in (ROOT / folder).glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _names(node: ast.AST) -> set[str]:
    """Names and attribute names read anywhere under node."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _mentions(node: ast.AST) -> set[str]:
    """_names(node) and the parts of every dotted-name string under node,
    the way the benchmark's tracer lists the functions it wraps."""
    return _names(node) | {
        part for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and re.fullmatch(r"[A-Za-z_][\w.]*", n.value)
        for part in n.value.split(".")}


@pytest.fixture(scope="module")
def mentions() -> dict[str, set[str]]:
    """What each grpoly module, and everything outside the package, names."""
    out = {path.name: _mentions(_parse(path)) for path in MODULES}
    out["outside"] = set().union(*(_mentions(_parse(p)) for p in USERS))
    return out


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the file binds by import, with the line of its import."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    return imported


@pytest.mark.parametrize("path", IMPORTERS, ids=[p.name for p in IMPORTERS])
def test_no_unused_imports(path):
    tree = _parse(path)
    imported = _imported(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported.items() if name not in used)
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_private_definitions(path):
    tree = _parse(path)
    unused = sorted(
        f"{stmt.name} (line {stmt.lineno})" for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in _names(other)
                    for other in tree.body if other is not stmt))
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_public_definition_is_named(path, mentions):
    tree = _parse(path)
    elsewhere = set().union(*(names for name, names in mentions.items()
                              if name != path.name))
    unused = sorted(
        f"{stmt.name} (line {stmt.lineno})" for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_") and stmt.name not in elsewhere
        and not any(stmt.name in _mentions(other)
                    for other in tree.body if other is not stmt))
    assert unused == []


def test_only_the_text_writers_import_json():
    # records hand over JSON objects; the CLI writes the text, polynomials
    # reads and writes the polynomial wire text and simfun the spec text
    writers = [path.name for path in MODULES
               if "json" in _imported(_parse(path))]
    assert writers == ["cli.py", "polynomials.py", "simfun.py"]
