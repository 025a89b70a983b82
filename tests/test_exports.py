"""Export lists: each library module's ``__all__`` names what it defines,
and the package's ``__all__`` is those lists joined, without duplicates."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import minorbench

# every submodule but __main__, which runs the CLI when imported
MODULES = [importlib.import_module(f"minorbench.{m.name}")
           for m in pkgutil.iter_modules(minorbench.__path__)
           if m.name != "__main__"]
# every submodule but the command line declares the public names
LIBRARY = [m for m in MODULES if m.__name__ != "minorbench.cli"]


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


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_module_exports_only_its_own_names(module):
    assert set(module.__all__) <= defined_names(module)
    assert len(module.__all__) == len(set(module.__all__))


def test_package_exports_resolve_once():
    names = minorbench.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(minorbench, n)] == []


def test_package_exports_are_the_module_lists_joined():
    assert sorted(minorbench.__all__) == sorted(n for m in LIBRARY
                                                for n in m.__all__)


def test_star_import_binds_each_module_object():
    ns: dict = {}
    exec("from minorbench import *", ns)
    del ns["__builtins__"]
    assert set(ns) == set(minorbench.__all__)
    for module in LIBRARY:
        for name in module.__all__:
            assert ns[name] is getattr(module, name), name


def test_cli_import_loads_no_slow_helper_module():
    # dataclasses (with inspect, ast and dis) and logging cost a fresh
    # process over 10 ms to import, and no command needs them
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "import minorbench.cli\n"
            "print([m for m in ('dataclasses', 'inspect', 'logging') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
