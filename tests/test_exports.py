"""Every name a module exports in `__all__` resolves on that module, so
`from stabent.<module> import *` keeps working after a name is deleted."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import stabent

MODULES = [
    "stabent",
    *(f"stabent.{m.name}" for m in pkgutil.iter_modules(stabent.__path__)),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
