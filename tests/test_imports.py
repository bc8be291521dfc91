"""Every module of the package uses each name it imports, and importing
the solver loads no oracle and no generated dataclass methods."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
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


def _fresh(code: str) -> str:
    """The standard output of code run in a fresh interpreter that imports
    this package."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True, text=True).stdout


def test_the_solver_imports_without_the_oracle():
    for module in ("dimatch", "dimatch.cli"):
        out = _fresh(f"import sys, {module}\nprint('dimatch.oracle' in sys.modules)")
        assert out.split() == ["False"], module


def test_the_solver_imports_without_dataclasses_or_inspect():
    """A cold start pays for neither: the solver's records are NamedTuples
    and plain slotted classes."""
    out = _fresh("import sys, dimatch\nprint(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    assert out.strip() == "[]", out


def test_the_oracle_names_load_on_first_access():
    out = _fresh(
        "import sys, dimatch\n"
        "assert dimatch.brute_dim is sys.modules['dimatch.oracle'].brute_dim\n"
        "assert dimatch.generate is dimatch.oracle.generate\n"
        "assert dimatch.GeneratorSpec is dimatch.oracle.GeneratorSpec\n"
        "from dimatch import *\n"
        "missing = [n for n in dimatch.__all__ if n not in globals()]\n"
        "try:\n"
        "    dimatch.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(missing, str(exc))\n"
    )
    assert out.strip() == "[] module 'dimatch' has no attribute 'no_such_name'"


def _frozen_dataclasses(tree: ast.Module) -> list[str]:
    """The classes in tree decorated with dataclass(frozen=True)."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for dec in node.decorator_list
        if isinstance(dec, ast.Call)
        and getattr(dec.func, "id", getattr(dec.func, "attr", None)) == "dataclass"
        and any(k.arg == "frozen" and getattr(k.value, "value", False) is True for k in dec.keywords)
    ]


def test_no_module_on_the_solver_path_declares_a_frozen_dataclass():
    """A frozen dataclass generates and compiles its methods at import;
    the solver's immutable records are NamedTuples."""
    loaded = json.loads(_fresh(
        "import json, sys, dimatch, dimatch.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('dimatch.'))))"
    ))
    paths = [PACKAGE / f"{name.split('.', 1)[1]}.py" for name in loaded]
    assert len(paths) > 5 and all(p.is_file() for p in paths), loaded
    frozen = [(p.name, cls) for p in paths for cls in _frozen_dataclasses(ast.parse(p.read_text(), str(p)))]
    assert frozen == [], frozen


def test_a_frozen_dataclass_is_found():
    tree = ast.parse(
        "from dataclasses import dataclass\nimport dataclasses\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n"
        "@dataclasses.dataclass(eq=False, frozen=True)\nclass B:\n    x: int\n"
        "@dataclass\nclass C:\n    x: int\n"
        "@dataclass(frozen=False)\nclass D:\n    x: int\n"
    )
    assert _frozen_dataclasses(tree) == ["A", "B"]
