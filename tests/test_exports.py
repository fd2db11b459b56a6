"""Every name the package says it exports exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import possitrack

MODULES = sorted(m.name for m in pkgutil.iter_modules(possitrack.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"possitrack.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"possitrack.{name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(possitrack.__file__).read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names]
    assert len(imported) > 30
    assert [n for n in imported if not hasattr(possitrack, n)] == []
