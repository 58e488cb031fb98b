"""The package namespace exports names, not submodules, and every
exported name resolves."""

import importlib
import types

import pytest

import ricciwarp


def test_all_names_resolve_and_none_is_a_module():
    assert len(ricciwarp.__all__) == len(set(ricciwarp.__all__))
    for name in ricciwarp.__all__:
        assert not isinstance(getattr(ricciwarp, name), types.ModuleType), name


@pytest.mark.parametrize("module", ["patches", "fd", "curvature", "warped",
                                    "shooting", "quotient"])
def test_submodule_all_names_resolve(module):
    mod = importlib.import_module(f"ricciwarp.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
