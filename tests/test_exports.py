"""Every name a module of the package exports is defined in it."""

import importlib
import pkgutil

import pytest

import srr

MODULES = ["srr"] + sorted(m.name for m in pkgutil.walk_packages(srr.__path__, "srr."))


def test_every_module_is_checked():
    assert len(MODULES) >= 17 and "srr.models.gcn" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []
