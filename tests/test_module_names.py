"""No test module binds a top-level name twice.

A second `def test_x` replaces the first, and pytest collects only the
second, so the first test silently never runs. This reads every test
module's source without importing it.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def _bound_names(tree: ast.Module):
    # the names each top-level statement binds: defs, classes, plain and
    # annotated assignments, and imports
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0] for a in node.names)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_a_module_binds_each_name_once(path):
    names = Counter(_bound_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert [name for name, n in names.items() if n > 1] == []
