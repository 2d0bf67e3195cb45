import importlib
import pkgutil

import pytest

import capax

MODULES = ["capax"] + [f"capax.{m.name}" for m in pkgutil.iter_modules(capax.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", None)
    assert exports is not None, f"{name} has no __all__"
    assert len(set(exports)) == len(exports), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exports if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
