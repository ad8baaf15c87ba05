"""Every name in an export list resolves: a deleted function left in an
``__all__`` fails here, not at a user's ``from ... import *``. Every
imported name is used or exported, so a refactor leaves no stray import."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import lorarake

_MODULES = sorted(info.name for info in pkgutil.iter_modules(lorarake.__path__)
                  if info.name != "__main__")


@pytest.mark.parametrize("name", ["lorarake"] + [f"lorarake.{m}" for m in _MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


def _unused_imports(path) -> list[str]:
    """Names a module imports but neither uses nor lists in __all__.

    ``from __future__`` imports and import statements marked
    ``# noqa: F401`` are skipped.
    """
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(Path(lorarake.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
