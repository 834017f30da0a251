"""Every exported name resolves: ``repro`` and each subpackage.

A module deleted or a name renamed while an ``__init__`` still lists it
in ``__all__`` would only fail at a user's ``from repro.X import *``;
these tests fail it here instead.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def test_every_subpackage_is_discovered():
    assert len(PACKAGES) > 1


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    stale = [export for export in module.__all__ if not hasattr(module, export)]
    assert stale == [], f"{name}.__all__ lists names it does not define: {stale}"


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(namespace)
