"""The package namespace: every public name resolves, lazily, to the
object its submodule defines."""

from __future__ import annotations

import importlib

import pytest

import entwit
import entwit.hilbert

SUBMODULES = ("cli", "config", "hilbert", "operators", "optimize", "polyid", "states",
              "witnesses")


def test_every_public_name_resolves():
    for name in entwit.__all__:
        assert getattr(entwit, name) is not None


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from entwit import *", namespace)
    assert set(entwit.__all__) <= set(namespace)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_name_resolves_and_star_imports(name):
    module = importlib.import_module(f"entwit.{name}")
    namespace: dict = {}
    exec(f"from entwit.{name} import *", namespace)
    for attr in module.__all__:
        assert hasattr(module, attr), attr
        assert namespace[attr] is getattr(module, attr)


def test_reexport_is_the_submodule_object():
    assert entwit.kron is entwit.hilbert.kron


def test_submodules_are_package_attributes():
    # ``import entwit`` alone loads no submodule; the attribute loads it
    assert entwit.__getattr__("hilbert") is entwit.hilbert
    assert entwit.__getattr__("optimize").c_matrix is entwit.c_matrix


def test_dir_lists_the_public_names():
    listed = dir(entwit)
    assert "__all__" in listed
    assert set(entwit.__all__) <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        entwit.no_such_name
    assert not hasattr(entwit, "no_such_name")
