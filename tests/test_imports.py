"""Every name a library or test module imports is used in that module,
every module-level ``_private`` name of the library is referenced somewhere
in the library or the tests, no library module reads an arc's fields by
name, and only ``machine.py`` uses the checking builder.

``__init__.py`` exists to re-export, so its imports are not checked;
neither are ``from __future__`` imports and import statements marked
``# noqa: F401``.
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


def private_names(tree):
    """Module-level ``_private`` names that ``tree`` defines."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def referenced_names(tree):
    """Names ``tree`` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def test_the_check_sees_unreferenced_private_names():
    tree = ast.parse("_a = 1\n_b = 2\n__c__ = 3\n"
                     "def _d():\n    return _a\n"
                     "class _E:\n    pass\n"
                     "print(x._E)\n")
    assert private_names(tree) - referenced_names(tree) == {"_b", "_d"}


def test_every_private_name_is_referenced():
    trees = {p: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))}
    used = set().union(*map(referenced_names, trees.values()))
    assert [f"{p.name}:{name}" for p, tree in trees.items() if p.parent == SRC
            for name in sorted(private_names(tree) - used)] == []


ARC_FIELDS = {"ilabel", "olabel", "weight", "nextstate"}


def arc_field_reads(source):
    """``line:name`` of each attribute read whose name is an arc field's:
    an arc is a plain tuple, so each such read is an ``AttributeError``
    waiting for a branch that runs it."""
    return [f"{node.lineno}:{node.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in ARC_FIELDS]


def test_the_check_sees_arc_field_reads():
    source = ("for arc in m.arcs(q):\n"
              "    x = arc.ilabel + arc[1]\n"
              "    il, ol, w, t = arc\n"
              "    y = m.start_weight + f(arc).nextstate\n")
    assert arc_field_reads(source) == ["2:ilabel", "4:nextstate"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_arc_field_reads(path):
    assert arc_field_reads(path.read_text()) == []


BUILDER = {"Machine", "add_state", "add_states", "add_arc", "set_final",
           "set_start", "freeze"}


def builder_calls(source):
    """``line:name`` of each call of ``Machine(...)`` or of a builder method:
    every library op builds its output with ``Machine._from_parts``, so the
    checking builder, kept for callers, is used only where it is defined."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in BUILDER:
                calls.append((node.lineno, node.col_offset, name))
    return [f"{line}:{name}" for line, _, name in sorted(calls)]


def test_the_check_sees_builder_calls():
    source = ("m = Machine(kind)\n"
              "q = m.add_state(); m.set_start(q)\n"
              "m.add_arc(q, 1, 1, 0.0, q)\n"
              "out = Machine._from_parts(kind, None, None, [[]], {})\n"
              "add_states = m.freeze().add_states\n"
              "x = machine.Machine(kind)\n")
    assert builder_calls(source) == ["1:Machine", "2:add_state",
                                     "2:set_start", "3:add_arc", "5:freeze",
                                     "6:Machine"]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "machine.py"],
    ids=lambda p: p.name)
def test_only_machine_py_uses_the_builder(path):
    assert builder_calls(path.read_text()) == []
