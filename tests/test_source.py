"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vrlat"


def unused_imports(source: str) -> list[str]:
    """The names a module imports, anywhere in it, and never reads: a
    plain import binds its first dotted component, and a read is a name
    loaded anywhere in the module, attribute bases and annotations too."""
    imported, read = [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = "import os.path\nfrom re import Match, finditer as fi\ndef f(x: Match): fi(x)\nimport sys as s"
    assert unused_imports(source) == ["os", "s"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_import(path):
    # __init__.py imports to re-export, so it is the one module left out
    assert unused_imports(path.read_text()) == []
