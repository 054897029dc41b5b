import importlib
import pkgutil

import pytest

import twlab

MODULES = ["twlab"] + [f"twlab.{m.name}" for m in pkgutil.iter_modules(twlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale name in __all__ would make `from <module> import *` raise
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
