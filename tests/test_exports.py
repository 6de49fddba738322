"""Every name a module lists in ``__all__`` exists, and the package's star
import works: a deleted name left in a list fails here."""

import importlib
import pkgutil

import pytest

import hammingperc

MODULES = ["hammingperc"] + [
    f"hammingperc.{m.name}" for m in pkgutil.iter_modules(hammingperc.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_exists(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", ())
    assert [n for n in listed if not hasattr(module, n)] == []


def test_star_import_binds_every_listed_name():
    namespace = {}
    exec("from hammingperc import *", namespace)
    assert set(hammingperc.__all__) <= namespace.keys()
