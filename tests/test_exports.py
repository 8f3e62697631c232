"""Every name a package exports in ``__all__`` must resolve."""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["hbsim", "hbsim.simulator"])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
