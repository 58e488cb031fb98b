"""The package namespace exports names, not submodules."""

import types

import ricciwarp


def test_all_names_resolve_and_none_is_a_module():
    assert len(ricciwarp.__all__) == len(set(ricciwarp.__all__))
    for name in ricciwarp.__all__:
        assert not isinstance(getattr(ricciwarp, name), types.ModuleType), name
