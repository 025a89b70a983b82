"""Export lists: each module's ``__all__`` names what it defines, and the
package's ``__all__`` resolves without duplicates."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import minorbench

# every submodule but __main__, which runs the CLI when imported
MODULES = [importlib.import_module(f"minorbench.{m.name}")
           for m in pkgutil.iter_modules(minorbench.__path__)
           if m.name != "__main__"]


def defined_names(module) -> set[str]:
    """Names bound at the top level of the module's source by a def,
    a class or an assignment, not by an import."""
    names: set[str] = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.add(node.target.id)
    return names


@pytest.mark.parametrize("module",
                         [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_module_exports_only_its_own_names(module):
    assert set(module.__all__) <= defined_names(module)
    assert len(module.__all__) == len(set(module.__all__))


def test_package_exports_resolve_once():
    names = minorbench.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(minorbench, n)] == []

