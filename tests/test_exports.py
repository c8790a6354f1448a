"""Every exported name resolves and has a caller in the package.

The exported names are each module's ``__all__`` and the package's re-exports.
"""

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


def _relative_imports(tree):
    """``(module, name, bound as)`` for every top-level ``from .module import name``."""
    return [
        (node.module, alias.name, alias.asname or alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_package_reexports_resolve():
    imported = _relative_imports(ast.parse(inspect.getsource(manakov_spectra)))
    assert len(imported) == 48
    for module, name, _ in imported:
        source = importlib.import_module(f"manakov_spectra.{module}")
        assert getattr(manakov_spectra, name) is getattr(source, name), (module, name)


def _definitions(tree):
    """``(name, node)`` for every top-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def test_every_exported_name_has_a_caller_in_the_package():
    # Some other top-level definition of the package must use each exported
    # name: by its bare name, in the module that defines it or in one that
    # imports it from there.  A definition's uses of itself do not count, nor
    # does the package's re-export.
    package = ast.parse(inspect.getsource(manakov_spectra))
    exported = {(module, name) for module, name, _ in _relative_imports(package)}
    used = set()
    for module in MODULES:
        mod = importlib.import_module(f"manakov_spectra.{module}")
        exported |= {(module, n) for n in getattr(mod, "__all__", [])}
        tree = ast.parse(inspect.getsource(mod))
        origin = {bound: (source, name) for source, name, bound in _relative_imports(tree)}
        for defined, node in _definitions(tree):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            used |= {origin.get(n, (module, n)) for n in names} - {(module, defined)}
    assert sorted(exported - used) == []
