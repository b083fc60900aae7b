"""Unused-import guard for the package and its tests.

Each module is parsed with ast; a name bound by an import statement must be
read somewhere in that module.  `__init__.py` files, whose imports are the
package's re-exports, and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*ROOT.glob("src/nihobent/*.py"), *ROOT.glob("tests/*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - read)


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a.b import c as d\nsys.exit(d)\n") == ["os"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
