"""Every exported name resolves, and every definition has a caller in the package.

The exported names are each module's ``__all__`` and the package's re-exports.
The definitions are each module's top-level functions, classes and assigned
names, private ones included, and the methods of its classes.
"""

import ast
import collections
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
    assert len(imported) == 45
    for module, name, _ in imported:
        source = importlib.import_module(f"manakov_spectra.{module}")
        assert getattr(manakov_spectra, name) is getattr(source, name), (module, name)


def _defined_names(node):
    """Names a top-level statement defines: a function, a class or assigned names."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
    return set()


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _modules():
    """``(name, module, syntax tree)`` for every module of the package."""
    for name in MODULES:
        mod = importlib.import_module(f"manakov_spectra.{name}")
        yield name, mod, ast.parse(inspect.getsource(mod))


def test_every_definition_has_a_caller_in_the_package():
    # Every exported name and every top-level definition, private ones
    # included, must be used by another top-level statement of the package:
    # a definition, or a module-level statement such as an ``if __name__``
    # block.  Uses are by bare name, in the module that defines the name or
    # in one that imports it from there.  A definition's uses of itself do
    # not count, nor does the package's re-export.
    package = ast.parse(inspect.getsource(manakov_spectra))
    wanted = {(module, name) for module, name, _ in _relative_imports(package)}
    used = set()
    for module, mod, tree in _modules():
        wanted |= {(module, n) for n in getattr(mod, "__all__", [])}
        origin = {bound: (source, name) for source, name, bound in _relative_imports(tree)}
        for node in tree.body:
            own = {(module, n) for n in _defined_names(node)}
            wanted |= {d for d in own if not _dunder(d[1])}
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            used |= {origin.get(n, (module, n)) for n in names} - own
    assert sorted(wanted - used) == []


def test_every_method_has_a_caller_in_the_package():
    # Every method of a top-level class, properties included, must be used
    # by attribute name (``obj.name``) somewhere in the package outside its
    # own body.  Dunder methods are called by the language.
    uses = collections.Counter()
    methods = []
    for module, _, tree in _modules():
        uses.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                methods += [
                    (module, cls.name, m)
                    for m in cls.body
                    if isinstance(m, ast.FunctionDef) and not _dunder(m.name)
                ]
    uncalled = []
    for module, cls, m in methods:
        own = sum(1 for n in ast.walk(m) if isinstance(n, ast.Attribute) and n.attr == m.name)
        if uses[m.name] == own:
            uncalled.append(f"{module}.{cls}.{m.name}")
    assert uncalled == []
