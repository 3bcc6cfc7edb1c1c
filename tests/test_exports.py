"""Exports and layering: every exported name exists, and the model-driven layers
import nothing of the learned stack."""

import ast
import importlib
import os

import pytest

import semidanse

# The EKF/UKF references are built from the known model alone.
MODEL_DRIVEN = ("numerics", "dynamics", "measurement", "baselines")
LEARNED = {"estimator", "prior_net", "dataset", "harness"}


@pytest.mark.parametrize("module", ["semidanse", "semidanse.dataset"])
def test_every_exported_name_exists(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _package_imports(module: str) -> set:
    """The semidanse modules that `module` imports by relative import."""
    path = os.path.join(os.path.dirname(semidanse.__file__), f"{module}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:  # from . import x
                imported.update(alias.name for alias in node.names)
    return imported


@pytest.mark.parametrize("module", MODEL_DRIVEN)
def test_model_driven_layers_import_nothing_learned(module):
    assert _package_imports(module) & LEARNED == set()


def test_numerics_imports_only_the_exceptions():
    # The plane kernels and primitives sit under every other module: they can pull in
    # no learned code and close no import cycle.
    assert _package_imports("numerics") <= {"exceptions"}


def test_test_only_belief_type_is_not_exported():
    assert "GaussianBelief" not in semidanse.__all__
