import importlib
import pkgutil

import pytest

import ramcond

MODULES = sorted(info.name for info in pkgutil.iter_modules(ramcond.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"ramcond.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
