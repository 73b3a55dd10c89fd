"""The package's ``__all__`` and its public attributes name the same
objects: nothing is exported that does not exist, and nothing is imported
into the package namespace without being exported."""

import types

import hypsimplex


def test_every_exported_name_resolves_once():
    assert len(hypsimplex.__all__) == len(set(hypsimplex.__all__))
    missing = [name for name in hypsimplex.__all__ if not hasattr(hypsimplex, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    public = {
        name for name, value in vars(hypsimplex).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - set(hypsimplex.__all__) == set()
