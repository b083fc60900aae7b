"""Unused-import, unused-export and unread-field guards for the package and its tests.

Each module is parsed with ast; a name bound by an import statement must be
read somewhere in that module.  `__init__.py` files, whose imports are the
package's re-exports, and `from __future__` imports are exempt.  Every
re-export in `nihobent.__all__` other than a submodule must be named by a
test, by the benchmark or by the README, so that a dead export is noticed.
Every field of a dataclass or NamedTuple in the package must be read as an
attribute somewhere in the package, its tests or the benchmark; FamilyParams
is exempt, since its fields are read by name through dataclasses.fields.
"""

import ast
import re
import types
from pathlib import Path

import pytest

import nihobent

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


def test_every_export_has_a_user():
    readers = [*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py"), ROOT / "README.md"]
    text = "\n".join(p.read_text() for p in readers)
    names = [n for n in nihobent.__all__ if not isinstance(getattr(nihobent, n), types.ModuleType)]
    assert [n for n in names if not re.search(rf"\b{n}\b", text)] == []


def record_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of a @dataclass or NamedTuple class."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        heads = node.decorator_list + node.bases  # @dataclass(...) or (typing.)NamedTuple
        kinds = {ast.unparse(n).split("(")[0].split(".")[-1] for n in heads}
        if kinds & {"dataclass", "NamedTuple"}:
            fields += [
                (node.name, stmt.target.id)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def unread_fields(source: str, readers: list[str]) -> list[str]:
    trees = [ast.parse(text) for text in readers]
    read = {n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return [f"{cls}.{name}" for cls, name in record_fields(source) if name not in read]


def test_guard_flags_an_unread_field():
    source = (
        "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n"
        "class Q(typing.NamedTuple):\n    z: str\n    w: str\n"
        "class R:\n    v: int\n"
    )
    assert unread_fields(source, [source, "print(p.x, q.w)\n"]) == ["P.y", "Q.z"]


def test_every_record_field_is_read():
    dirs = ("src/nihobent", "tests", "perfbench")
    readers = [p.read_text() for d in dirs for p in ROOT.glob(f"{d}/*.py")]
    unread = [
        name
        for path in ROOT.glob("src/nihobent/*.py")
        for name in unread_fields(path.read_text(), readers)
        if not name.startswith("FamilyParams.")
    ]
    assert unread == []
