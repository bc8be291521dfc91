"""Every module of the package uses each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import dimatch

PACKAGE = Path(dimatch.__file__).parent

# (module, name): imported but not called there, because bench/spans.py
# rebinds the name in that module to time the layer behind it
REBOUND = {
    ("pipeline.py", "assert_irreducible_structure"),
}


def _unused_imports(tree: ast.Module) -> set[str]:
    """The names an import in tree binds that no expression reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _exports(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_never_uses():
    unused, modules = [], sorted(PACKAGE.glob("*.py"))
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        exempt = _exports(tree) | {name for module, name in REBOUND if module == path.name}
        unused += [(path.name, name) for name in sorted(_unused_imports(tree) - exempt)]
    assert len(modules) > 5 and unused == [], unused


def test_an_unused_import_is_found():
    tree = ast.parse("from typing import Collection, Optional\nx: Optional[int] = None\n")
    assert _unused_imports(tree) == {"Collection"}
