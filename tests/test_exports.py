"""Every name a module of the package exports resolves."""

import importlib

import pytest

MODULES = ("ikmig", "ikmig.cli", "ikmig.errors", "ikmig.forward", "ikmig.migrate",
           "ikmig.recover", "ikmig.scene", "ikmig.stochastic")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
