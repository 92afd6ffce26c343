"""Source layout: every module-level private name of the library is used."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tsr"


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


def unreferenced_private_names(src: Path) -> list:
    """Module-level private names (dunders excepted) that no statement of
    the package reads outside the one defining them.  Imports do not count
    as reads, so a name only imported somewhere is still reported."""
    statements = []
    for path in sorted(src.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((path.name, stmt, _referenced(stmt)))
    out = []
    for module, stmt, _ in statements:
        for name in _defined(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in refs for _, other, refs in statements if other is not stmt):
                out.append(f"{module}:{stmt.lineno} {name}")
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
