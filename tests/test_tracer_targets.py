"""The library names perfbench's tracer wraps stay in place.

perfbench/spans.py lists, in LAYER_TARGETS, the (module, attribute) pairs
it replaces with recording wrappers during a traced run; a name that no
longer resolves silently turns its layer into "unmeasured". This reads
the list from the benchmark at test time, so a refactor of the library
that drops or renames one of them fails here first.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_targets():
    # the literal is read without importing the benchmark's module
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "LAYER_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_TARGETS in {SPANS}")


def test_every_traced_name_resolves_to_a_callable():
    targets = _layer_targets()
    assert targets
    missing = [f"{module}.{attr}" for module, attr, *_ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
