"""Rules about the library's source text."""
import ast
import pathlib

import pytest

import contextnet

SOURCES = sorted(pathlib.Path(contextnet.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_guard_depends_on_assert(path):
    """`python -O` strips assert statements, so a check written as one would
    vanish there: every guard raises its own error instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_behaviour_depends_on_debug(path):
    """`python -O` also makes `__debug__` false; with no assert and no use of
    `__debug__`, the library runs the same with and without -O."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert lines == [], f"{path.name}: __debug__ used at lines {lines}"
