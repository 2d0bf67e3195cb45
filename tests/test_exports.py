import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_out_scipy_integrate_and_interpolate():
    # both pull in scipy's sparse, linalg and optimize packages, which cost
    # start-up time and memory in every process that imports capax
    code = ("import sys, capax; capax.bessel_kernel_table(capax.Grid(2, 1.0, 8), 0.7); "
            "print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])")
    src = str(Path(capax.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True,
                         text=True)
    assert out.stdout.strip() == "[]"
