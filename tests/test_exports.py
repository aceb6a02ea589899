"""Export lists stay honest: every name a module lists in ``__all__`` exists,
and every name the package re-exports is listed by the module it comes from.
A deleted function that an export list still names fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import halfheat

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(halfheat.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"halfheat.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    for attr in exported:
        getattr(module, attr)


def test_package_namespace_resolves():
    tree = ast.parse(Path(halfheat.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"halfheat.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(halfheat, alias.asname or alias.name) is getattr(module, alias.name)
