"""Every name a module in ``src/`` or ``tests/`` imports is used in it.

A name counts as used where the module loads it (``np`` in ``np.abs``),
or lists it in ``__all__``; ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import math\nimport struct\nmath.pi\n") == ["line 2: struct"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []
