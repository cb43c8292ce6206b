"""The package namespace is the union of its modules' __all__ lists."""

import importlib
import types

import pytest

import quasiherm

MODULES = ("dyson", "errors", "linalg", "matfile", "models", "observables")


@pytest.mark.parametrize("module", MODULES)
def test_each_listed_name_is_the_package_attribute(module):
    mod = importlib.import_module(f"quasiherm.{module}")
    assert mod.__all__
    for name in mod.__all__:
        assert getattr(quasiherm, name) is getattr(mod, name), name


def test_package_exports_exactly_the_listed_names():
    listed = [name for module in MODULES
              for name in importlib.import_module(f"quasiherm.{module}").__all__]
    public = {name for name, value in vars(quasiherm).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(listed) == len(set(listed))
    assert public == set(listed)
