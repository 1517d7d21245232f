"""Each package's `__all__` lists exactly the names its `__init__.py`
imports plus the public names it defines, so `from package import *`
binds every re-export and no name that is gone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "formaltrip"
INITS = sorted(p for p in PACKAGE.rglob("__init__.py") if "__all__" in p.read_text(encoding="utf-8"))


def exported_and_bound(path: Path) -> tuple[list[str], set[str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    listed, bound = [], set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                listed = [c.value for c in node.value.elts]
            else:
                bound |= set(names)
    return listed, {name for name in bound if not name.startswith("_")}


def test_every_subpackage_declares_all():
    assert [p.parent.name for p in INITS] == ["grammar", "pipeline", "syntax", "verify"]


@pytest.mark.parametrize("init", INITS, ids=lambda p: p.parent.name)
def test_all_lists_exactly_the_bound_public_names(init):
    listed, bound = exported_and_bound(init)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == bound
