"""The package's public names."""

import importlib
import os
import subprocess
import sys
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


def test_importing_the_package_does_not_load_numpy_random():
    # numpy.random takes about 6 MB of memory; an estimate never draws, so
    # only the code that draws may load it
    code = "import sys, oprisk_dynamics.cli; print('numpy.random' in sys.modules)"
    src = str(Path(oprisk_dynamics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
