"""Every name a module of the package, the tests or the scripts imports is
used in that module. `perfbench/` is left out: it changes only with the
benchmark.

Package `__init__.py` files are skipped: their imports are re-exports.
A name counts as used when it is read anywhere in the module (including
annotations) or listed in the module's `__all__`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = (ROOT / "src" / "formaltrip", ROOT / "tests", ROOT / "scripts")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for path in sorted(p for d in CHECKED for p in d.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        names = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\nloads('1')\n")
    assert unused_imports(tree) == ["os (line 1)", "dumps (line 2)"]
