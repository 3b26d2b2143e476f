"""The public surface of projflow: every exported name resolves, and the
callers the repository documents and runs use exported names only."""

import ast
import re
from pathlib import Path

import projflow

ROOT = Path(__file__).resolve().parent.parent


def _parse(text):
    return ast.walk(ast.parse(text))


def figures_names():
    """Every pf.<name> that projbench/figures.py reads, found without
    running the script."""
    text = (ROOT / "projbench" / "figures.py").read_text(encoding="utf-8")
    return {
        node.attr
        for node in _parse(text)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "pf"
    }


def readme_example_names():
    """Every name the README's library example imports from projflow."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library example\s+```python\n(.*?)```", text, re.S).group(1)
    return {
        alias.name
        for node in _parse(block)
        if isinstance(node, ast.ImportFrom) and node.module == "projflow"
        for alias in node.names
    }


def test_public_surface():
    exported = set(projflow.__all__)
    assert len(exported) == len(projflow.__all__)
    assert [name for name in projflow.__all__ if not hasattr(projflow, name)] == []
    for used in (figures_names(), readme_example_names()):
        assert used and used <= exported, sorted(used - exported)
