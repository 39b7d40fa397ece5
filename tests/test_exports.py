"""Every name a layer module exports resolves.

Span tracing wraps exactly the names in each layer's ``__all__``, so a
stale entry there would fail only in a traced run.
"""

import importlib
import pkgutil

import pytest

import qelicit

MODULES = [f"qelicit.{m.name}" for m in pkgutil.iter_modules(qelicit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", None)
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
