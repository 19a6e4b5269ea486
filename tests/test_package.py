"""The package's public names."""

import importlib
import pkgutil

import pytest

import sentvec

MODULES = sorted(info.name for info in pkgutil.iter_modules(sentvec.__path__))


@pytest.mark.parametrize("name", ["sentvec", *(f"sentvec.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
