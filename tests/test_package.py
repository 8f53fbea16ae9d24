"""The package's public names."""

import importlib

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
