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


def make_expression(formalism: str, ast) -> FormalExpression:
    return FormalExpression(formalism, ast, canonical_text(formalism, ast))
