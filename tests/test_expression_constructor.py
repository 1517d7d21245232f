"""Only the printer builds a FormalExpression.

`printer.make_expression` refuses a tree whose canonical text would nest
past MAX_NESTING, so every expression's canonical text parses back. That
holds while no other code in src, tests, scripts or perfbench calls the
FormalExpression constructor, by its name or as an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "scripts", "perfbench")


def constructor_calls(source: str) -> list[int]:
    """Line numbers of the FormalExpression constructor calls in `source`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name) and node.func.id == "FormalExpression"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "FormalExpression"
        )
    ]


def test_only_the_printer_constructs_a_formal_expression():
    found = {}
    for path in sorted(p for d in SEARCHED for p in (ROOT / d).rglob("*.py")):
        calls = constructor_calls(path.read_text(encoding="utf-8"))
        if calls:
            found[path.relative_to(ROOT).as_posix()] = len(calls)
    assert found == {"src/formaltrip/syntax/printer.py": 1}


def test_the_check_sees_a_constructor_call():
    source = (
        "from formaltrip.syntax import nodes\n"
        "from formaltrip.syntax.nodes import FormalExpression\n"
        "a = FormalExpression('prop', None, 'p1')\n"
        "b = nodes.FormalExpression('prop', None, 'p1')\n"
        "c = isinstance(a, FormalExpression)\n"
    )
    assert constructor_calls(source) == [3, 4]
