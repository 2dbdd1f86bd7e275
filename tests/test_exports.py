"""Every name a library module exports in `__all__` resolves in it, so a
deleted definition cannot leave a stale export behind."""

import importlib
import pkgutil

import pytest

import hecke_functor

MODULES = {info.name: importlib.import_module(f"hecke_functor.{info.name}")
           for info in pkgutil.iter_modules(hecke_functor.__path__)}


@pytest.mark.parametrize("name", sorted(n for n, m in MODULES.items() if hasattr(m, "__all__")))
def test_every_export_resolves(name):
    module = MODULES[name]
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
