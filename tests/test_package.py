"""The package's public names."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import oprisk_dynamics

MODULES = ("ensemble", "estimate", "io", "model", "simulate", "validation")


def test_package_exports_exactly_its_modules_public_names():
    modules = [importlib.import_module(f"oprisk_dynamics.{name}") for name in MODULES]
    names = {name for module in modules for name in module.__all__}
    assert set(oprisk_dynamics.__all__) == names | {"errors"}
    assert len(oprisk_dynamics.__all__) == len(set(oprisk_dynamics.__all__))
    for module in modules:
        for name in module.__all__:
            assert getattr(oprisk_dynamics, name) is getattr(module, name)


def test_package_binds_its_modules_and_the_simulate_function():
    # perfbench does ``from oprisk_dynamics import io``, and the star import
    # of the simulate module rebinds the package's ``simulate`` to the function
    for name in ("io", "ensemble", "estimate", "model", "validation", "errors"):
        module = getattr(oprisk_dynamics, name)
        assert isinstance(module, types.ModuleType)
        assert module is importlib.import_module(f"oprisk_dynamics.{name}")
    assert oprisk_dynamics.simulate is importlib.import_module("oprisk_dynamics.simulate").simulate
    assert isinstance(oprisk_dynamics.simulate, types.FunctionType)


def test_importing_the_package_does_not_load_numpy_random():
    # numpy.random takes about 6 MB of memory; an estimate never draws, so
    # only the code that draws may load it
    code = "import sys, oprisk_dynamics.cli; print('numpy.random' in sys.modules)"
    src = str(Path(oprisk_dynamics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"

