"""Every name in an export list resolves: a deleted function left in an
``__all__`` fails here, not at a user's ``from ... import *``."""

from __future__ import annotations

import importlib
import pkgutil

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
