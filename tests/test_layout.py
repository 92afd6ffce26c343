"""Source layout: every module-level private name of the library is used,
and no module of the library or the tests imports a name it never reads."""

import ast
from pathlib import Path

import tsr

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tsr"


def _defined(stmt) -> list:
    """The names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(stmt) -> set:
    """The names a statement reads, as bare names or as attributes."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unread(src: Path, wanted) -> list:
    """Module-level names for which ``wanted`` holds that no statement of
    the package reads outside the one defining them.  Imports do not count
    as reads, so a name only imported somewhere is still reported."""
    statements = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.name, stmt, _referenced(stmt)))
    out = []
    for module, stmt, _ in statements:
        for name in _defined(stmt):
            if not wanted(name):
                continue
            if not any(name in refs for _, other, refs in statements if other is not stmt):
                out.append(f"{module}:{stmt.lineno} {name}")
    return out


def unreferenced_private_names(src: Path) -> list:
    """Module-level private names (dunders excepted) that nothing reads."""
    return _unread(src, lambda name: name.startswith("_") and not name.startswith("__"))


def unexported_public_names(src: Path, exported) -> list:
    """Module-level public names that are not in ``exported`` and that
    nothing reads: library code that only tests or outside tools call."""
    return _unread(src, lambda name: not name.startswith("_") and name not in exported)


def unused_imports(paths) -> list:
    """The names each file imports but never reads.  A name listed in
    ``__all__`` counts as read; ``from __future__`` imports are skipped."""
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if "__all__" in _defined(stmt):
                read |= {c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant)}
        out += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    return out


def test_every_private_module_name_is_referenced():
    assert unreferenced_private_names(SRC) == []


def test_a_leftover_helper_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _used():\n    return 1\n\n\n"
        "def _leftover():\n    return _leftover()\n\n\n"
        "_TABLE = {}\n\n\n"
        "def public():\n    return _used() + len(_TABLE)\n"
    )
    (tmp_path / "b.py").write_text("from .a import _leftover\n")
    assert unreferenced_private_names(tmp_path) == ["a.py:5 _leftover"]


def test_every_public_module_name_is_exported_or_read():
    # perfbench counts live complement states with strongly_connected_components;
    # it moves to tests/helpers.py once the benchmark stops calling it.
    unread = unexported_public_names(SRC, set(tsr.__all__) | {"strongly_connected_components"})
    assert unread == []


def test_an_unexported_unread_name_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\n\n\n"
        "def exported():\n    return helper() + LIMIT\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def leftover():\n    return leftover()\n"
    )
    (tmp_path / "b.py").write_text("from .a import leftover\n")
    assert unexported_public_names(tmp_path, {"exported"}) == ["a.py:12 leftover"]


def test_every_import_is_read():
    assert unused_imports(sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))) == []


def test_an_unused_import_is_reported(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "from .b import exported\n\n"
        "__all__ = [\"exported\"]\n\n\n"
        "def f():\n    return parse(os.path.sep)\n"
    )
    assert unused_imports([tmp_path / "a.py"]) == ["a.py:3 dumps"]
