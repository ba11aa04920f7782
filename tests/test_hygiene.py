"""Source hygiene: every imported name is used.

A guard for unused imports that needs no linter. Each module of the package
and of the test suite is parsed with `ast`; a name bound by an import must be
read somewhere in the file or be listed in the module's `__all__`.
`from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = (sorted((ROOT / "src" / "kasamilab").glob("*.py"))
         + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    """(line, name) of every imported name the source never reads."""
    imported, read, exported = {}, set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read | exported)


def test_guard_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, numpy.linalg\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "print(numpy.linalg, d)\n")
    assert unused_imports(source) == [(2, "os")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
