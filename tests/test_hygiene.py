"""Source hygiene: no module of the package imports a name it never reads."""

import ast
import os

import pytest

import qcluster

PKG = os.path.dirname(qcluster.__file__)
MODULES = sorted(f for f in os.listdir(PKG) if f.endswith(".py"))


def unused_imports(source: str):
    """Names bound by import statements that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_import_is_detected():
    src = "from os import path, sep\nimport sys\nprint(sep)\n"
    assert unused_imports(src) == [(1, "path"), (2, "sys")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_imported_name(module):
    with open(os.path.join(PKG, module)) as fh:
        assert unused_imports(fh.read()) == []
