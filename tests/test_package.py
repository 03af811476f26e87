"""The public surface: every exported name resolves and the submodules agree."""
import importlib
import pkgutil
from collections import Counter

import pytest

import passagelab as pl

# every submodule that declares an export list
_SUBMODULES = [
    m.name
    for m in pkgutil.iter_modules(pl.__path__)
    if hasattr(importlib.import_module(f"passagelab.{m.name}"), "__all__")
]


def test_every_exported_name_resolves():
    assert len(pl.__all__) == len(set(pl.__all__))
    missing = [name for name in pl.__all__ if not hasattr(pl, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from passagelab import *", namespace)
    assert set(pl.__all__) <= set(namespace)


@pytest.mark.parametrize("name", _SUBMODULES)
def test_submodule_exports_are_package_exports(name):
    module = importlib.import_module(f"passagelab.{name}")
    assert set(module.__all__) <= set(pl.__all__)
    for attr in module.__all__:
        assert getattr(module, attr) is getattr(pl, attr)


def test_each_export_is_declared_by_one_submodule():
    # the package declares no name itself: its export list is the union of
    # the submodules' lists, each name in exactly one
    owners = Counter(
        attr
        for name in _SUBMODULES
        for attr in importlib.import_module(f"passagelab.{name}").__all__
    )
    assert set(owners.values()) == {1}
    assert sorted(owners) == sorted(pl.__all__)
