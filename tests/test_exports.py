"""Every exported name exists, so removing a function cannot leave a stale export."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["semidanse", "semidanse.dataset"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
