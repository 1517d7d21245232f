"""Every top-level function, class and constant of a src module is used.

A name defined at the top level of a module under src/formaltrip (package
`__init__.py` files aside) must appear as a whole word on some line of
src, tests, scripts or perfbench other than the line that defines it.
Lines of package `__init__.py` files do not count: a re-export is not a
use.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "formaltrip"
SEARCHED = ("src", "tests", "scripts", "perfbench")


def top_level_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return names


def word_lines(paths) -> dict[str, set]:
    """Each word -> the (path, line number) pairs it appears on."""
    where = defaultdict(set)
    for path in paths:
        if path.name == "__init__.py":
            continue
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for word in re.findall(r"\w+", line):
                where[word].add((path, lineno))
    return where


def unreferenced(path: Path, where: dict[str, set]) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{name} (line {line})"
        for name, line in top_level_names(tree).items()
        if not where.get(name, set()) - {(path, line)}
    ]


def test_every_top_level_name_is_used_somewhere_else():
    where = word_lines(p for d in SEARCHED for p in sorted((ROOT / d).rglob("*.py")))
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unreferenced(path, where)
        if names:
            found[str(path.relative_to(SRC))] = names
    assert found == {}


def test_the_check_sees_an_unused_name(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("LIMIT = 3\nUNUSED: int = 4\n\ndef helper():\n    return LIMIT\n\nclass Spare:\n    pass\n")
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import Spare\n")
    user = tmp_path / "user.py"
    user.write_text("from mod import helper\n")
    where = word_lines([module, init, user])
    assert unreferenced(module, where) == ["UNUSED (line 2)", "Spare (line 7)"]
