"""Every name a module of the package exports resolves.

A deletion that leaves its name behind in some ``__all__`` breaks
``from blochframe.<module> import *`` and points readers at code that is
gone; this test fails first.
"""
import importlib
import pkgutil

import pytest

import blochframe

MODULES = ["blochframe"] + [
    f"blochframe.{info.name}" for info in pkgutil.iter_modules(blochframe.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
