"""Checks on the package's source text."""

import ast
import importlib
import re
from pathlib import Path

import pytest

from vrlat.complexes import build_flag
from vrlat.setfam import gen_uniform

SRC = Path(__file__).resolve().parent.parent / "src" / "vrlat"
README = SRC.parent.parent / "README.md"


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


# the clique tree's layout, which only complexes.py reads: Complex's
# candidate sets and its memos of block ends and labels
TREE_LAYOUT = {"cands", "_ends", "_labels", "_label"}


def tree_layout_reads(source: str) -> list[str]:
    """The names by which a module reaches into the clique tree: each
    attribute of TREE_LAYOUT it reads off any object, and each
    _-prefixed name it imports from the complexes module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in TREE_LAYOUT:
            found.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.rpartition(".")[2] == "complexes":
                found += [alias.name for alias in node.names if alias.name.startswith("_")]
    return found


def test_tree_layout_reads_finds_attributes_and_private_imports():
    source = (
        "from .complexes import Complex, _bits\nfrom .setfam import _x\n"
        "def f(k): return k.cands[0], k._label(1, 0), k.row(3), k.candidates"
    )
    assert sorted(tree_layout_reads(source)) == ["_bits", "_label", "cands"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "complexes.py"), ids=lambda p: p.name
)
def test_only_complexes_reads_the_tree_layout(path):
    # the reducer and the CLI take rows, columns and subtrees from
    # Complex's methods, so the tree's layout can change in one module
    assert tree_layout_reads(path.read_text()) == []


def readme_references(text: str) -> list[tuple[str, str]]:
    """(owner, name) for each backticked `Complex.x`, `k.x` and
    `<module>.x` of the package's modules, file names such as
    `homology.py` left out."""
    pattern = r"`(Complex|k|setfam|complexes|homology|cli|formulas)\.(\w+)"
    return [(owner, name) for owner, name in re.findall(pattern, text) if name != "py"]


def test_readme_references_skip_file_names():
    text = "`k.row(key)`, `Complex.split`, `homology.py`, `cli._entries` and `vrlat.cli`"
    assert readme_references(text) == [("k", "row"), ("Complex", "split"), ("cli", "_entries")]


def test_readme_names_only_what_exists():
    # Complex.x and k.x on a built complex, <module>.x on vrlat.<module>
    k = build_flag(gen_uniform(4, 2), 2, 2)
    refs = readme_references(README.read_text())
    assert refs
    missing = [
        f"{owner}.{name}"
        for owner, name in refs
        if not hasattr(
            k if owner in ("Complex", "k") else importlib.import_module(f"vrlat.{owner}"), name
        )
    ]
    assert missing == []
