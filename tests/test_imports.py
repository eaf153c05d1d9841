"""Every name a ``privateyes`` module imports is used in it, and every
function, class and method it defines is used somewhere, so a deletion
cannot leave a dead import or a dead definition behind."""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "privateyes").glob("*.py"))
SOURCES = [path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")]


def _module_value(tree: ast.Module, name: str):
    """The value a module-level statement assigns to ``name``, or None."""
    return next((node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == [name]), None)


def _wrapped_names():
    """(module, name) pairs that ``perfbench/spans.py``'s WRAPS look up: the
    tracer replaces a callable at the name its caller imports, so such an
    import stays while the tracer wraps it there."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    wraps = _module_value(tree, "WRAPS")
    return {(entry.elts[1].value, entry.elts[2].value.split(".")[0]) for entry in wraps.elts}


def _unused_imports(tree: ast.Module) -> list:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _module_value(tree, "__all__")  # names re-exported through __all__
    if exported is not None:
        used |= set(ast.literal_eval(exported))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    wrapped = _wrapped_names()
    unused = [name for name in _unused_imports(ast.parse(path.read_text()))
              if (path.stem, name) not in wrapped]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_the_check_finds_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nfrom x import y as z\n"
                     "__all__ = ['loads']\nos.getpid()\n")
    assert _unused_imports(tree) == ["dumps", "z"]


def _definitions(tree: ast.Module) -> list:
    """Module-level functions and classes, and the classes' methods other
    than dunders."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def _references(tree: ast.Module) -> set:
    """Names read as a variable or an attribute."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


@cache
def _referenced() -> frozenset:
    """Every name referenced in the sources, with each part of the dotted
    paths ``WRAPS`` looks up, which the tracer reaches through ``getattr``."""
    names = set().union(*(_references(ast.parse(path.read_text())) for path in SOURCES))
    wraps = _module_value(ast.parse((ROOT / "perfbench" / "spans.py").read_text()), "WRAPS")
    return frozenset(names.union(*(entry.elts[2].value.split(".") for entry in wraps.elts)))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_definition_is_referenced(path):
    unused = [name for name in _definitions(ast.parse(path.read_text()))
              if name not in _referenced()]
    assert unused == [], f"{path.name} defines names nothing references: {unused}"


def test_the_check_finds_an_unreferenced_definition():
    tree = ast.parse("def f(): pass\ndef g(): f()\nclass C:\n    def __init__(self): pass\n"
                     "    def m(self): pass\n    def n(self): self.m()\n")
    assert [name for name in _definitions(tree) if name not in _references(tree)] == [
        "g", "C", "n"]
