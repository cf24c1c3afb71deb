"""Source hygiene checks over src/qmsep."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmsep"


def _unread_imports(tree: ast.Module) -> list:
    """Names an import statement binds that no expression ever reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_flags_an_unread_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nx = tau\n")
    assert _unread_imports(tree) == [(1, "os"), (2, "pi")]


def test_no_unread_imports_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} {name}" for line, name in _unread_imports(tree)]
    assert not found, "imported but never read: " + ", ".join(found)
