"""Every exported name resolves: each module's ``__all__`` and the package's re-exports."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import manakov_spectra

MODULES = sorted(m.name for m in pkgutil.iter_modules(manakov_spectra.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"manakov_spectra.{name}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []


def test_package_reexports_resolve():
    tree = ast.parse(inspect.getsource(manakov_spectra))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(imported) > 50
    for module, name in imported:
        source = importlib.import_module(f"manakov_spectra.{module}")
        assert getattr(manakov_spectra, name) is getattr(source, name), (module, name)
