"""Every name a library or test module imports is used in that module.

``__init__.py`` exists to re-export, so it is not checked; neither are
``from __future__`` imports and import statements marked ``# noqa: F401``.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wfst"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + \
    sorted(TESTS.glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


def test_the_check_sees_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from re import match as m, sub  # noqa: F401\n"
              "from json import dumps, loads\n"
              "print(sys.argv, loads)\n")
    assert unused_imports(source) == ["os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
