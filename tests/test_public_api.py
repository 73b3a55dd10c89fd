"""The package's ``__all__`` and its public attributes name the same
objects: nothing is exported that does not exist, and nothing is imported
into the package namespace without being exported.  The names resolved on
first access are the objects of their defining modules."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import hypsimplex

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


@pytest.mark.parametrize("name", sorted(hypsimplex._LAZY))
def test_lazy_name_is_its_modules_object(name):
    module = importlib.import_module(f"hypsimplex.{hypsimplex._LAZY[name]}")
    assert getattr(hypsimplex, name) is getattr(module, name)


@pytest.mark.parametrize("name", ["DomainBox", "domain_for"])
def test_the_solver_uses_the_conditions_box(name):
    from hypsimplex import conditions, solver

    assert getattr(solver, name) is getattr(conditions, name)


def test_dir_lists_every_exported_name():
    assert set(hypsimplex.__all__) <= set(dir(hypsimplex))


def test_star_import_binds_every_exported_name():
    """In a fresh interpreter, where no lazy name has been read yet."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    script = (
        "from hypsimplex import *\n"
        "import hypsimplex\n"
        "print(sorted(n for n in hypsimplex.__all__ if n not in globals()))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'hypsimplex' has no attribute 'nope'"):
        hypsimplex.nope
