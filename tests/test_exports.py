"""Every exported name resolves, and the package exports only listed names."""

import importlib

import pytest

import skewlab

MODULES = ["skewlab.cli", "skewlab.functions", "skewlab.harness", "skewlab.linalg",
           "skewlab.quantities"]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_names_are_listed_by_their_modules():
    listed = {name for module in MODULES for name in importlib.import_module(module).__all__}
    imported = {
        name for name, value in vars(skewlab).items()
        if getattr(value, "__module__", "").startswith("skewlab.") and not name.startswith("_")
    }
    assert imported - listed == set()
