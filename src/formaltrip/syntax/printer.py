"""Deterministic canonical text for each formalism.

Logic formulas are fully parenthesized per n-ary node with single spaces
around binary operators and no space after negation; regexes use minimal
parentheses (only around starred multi-symbol groups). Reparsing the
canonical text yields a structurally identical AST.
"""

from __future__ import annotations

from .nodes import (
    FORALL,
    And,
    Atom,
    Concat,
    FormalExpression,
    Literal,
    LogicNode,
    Not,
    Or,
    Proposition,
    Quantified,
    RegexAst,
    Star,
)


def print_logic(node: LogicNode) -> str:
    if isinstance(node, Proposition):
        return node.name
    if isinstance(node, Atom):
        if not node.terms:
            return node.predicate
        args = ", ".join(t.name for t in node.terms)
        return f"{node.predicate}({args})"
    if isinstance(node, Not):
        return "¬" + print_logic(node.child)
    if isinstance(node, And):
        return "(" + " ∧ ".join(print_logic(c) for c in node.children) + ")"
    if isinstance(node, Or):
        return "(" + " ∨ ".join(print_logic(c) for c in node.children) + ")"
    if isinstance(node, Quantified):
        return "(" + _print_quantifier(node.kind, node.variables) + print_logic(node.body) + ")"
    raise TypeError(f"not a logic node: {node!r}")


def _print_quantifier(kind: str, variables) -> str:
    glyph = "∀" if kind == FORALL else "∃"
    return glyph + " " + " ".join(variables) + ". "


def print_fol(node: LogicNode) -> str:
    """The quantifier chain at the root is printed without parentheses."""
    prefix = ""
    while type(node) is Quantified:
        prefix += _print_quantifier(node.kind, node.variables)
        node = node.body
    return prefix + print_logic(node)


def print_regex(node: RegexAst) -> str:
    if isinstance(node, Literal):
        return node.symbol
    if isinstance(node, Star):
        if isinstance(node.child, Concat):
            return "(" + print_regex(node.child) + ")*"
        return print_regex(node.child) + "*"
    if isinstance(node, Concat):
        return "".join(print_regex(c) for c in node.children)
    raise TypeError(f"not a regex node: {node!r}")


def canonical_text(formalism: str, ast) -> str:
    if formalism == "prop":
        return print_logic(ast)
    if formalism == "fol":
        return print_fol(ast)
    if formalism == "regex":
        return print_regex(ast)
    raise ValueError(f"unknown formalism {formalism!r}")


def printed_nesting(formalism: str, ast) -> int:
    """The nesting the parser counts when it reads `canonical_text(formalism,
    ast)` back: each '(', negation and quantifier body of a logic formula,
    and each group and star of a regex, is one level."""
    if formalism == "prop":
        return _logic_nesting(ast)
    if formalism == "fol":
        levels = 0
        while type(ast) is Quantified:  # the root chain, printed bare
            levels += 1
            ast = ast.body
        return levels + _logic_nesting(ast)
    if formalism == "regex":
        return _regex_nesting(ast)
    raise ValueError(f"unknown formalism {formalism!r}")


def _logic_nesting(node: LogicNode) -> int:
    if isinstance(node, Not):
        return 1 + _logic_nesting(node.child)
    if isinstance(node, (And, Or)):
        return 1 + max(map(_logic_nesting, node.children))
    if isinstance(node, Quantified):  # '(' and the body
        return 2 + _logic_nesting(node.body)
    return 0


def _regex_nesting(node: RegexAst) -> int:
    if isinstance(node, Star):
        # a starred Concat is printed as a group: one level more
        return (2 if isinstance(node.child, Concat) else 1) + _regex_nesting(node.child)
    if isinstance(node, Concat):
        return max(map(_regex_nesting, node.children))
    return 0


def make_expression(formalism: str, ast) -> FormalExpression:
    return FormalExpression(formalism, ast, canonical_text(formalism, ast))
