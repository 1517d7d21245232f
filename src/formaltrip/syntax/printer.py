"""Deterministic canonical text for each formalism.

Logic formulas are fully parenthesized per n-ary node with single spaces
around binary operators and no space after negation; regexes use minimal
parentheses (only around starred multi-symbol groups). Reparsing the
canonical text yields a structurally identical AST.

The printer counts nesting as it prints, the way the parser counts it when
it reads the text back, and raises the parser's own ParseError for a tree
whose text would nest past MAX_NESTING. So a tree has canonical text exactly
when that text parses.
"""

from __future__ import annotations

from .nodes import (
    FORALL,
    MAX_NESTING,
    TOO_DEEP,
    And,
    Atom,
    Concat,
    FormalExpression,
    Literal,
    LogicNode,
    Not,
    Or,
    ParseError,
    Proposition,
    Quantified,
    RegexAst,
    Star,
)


def print_logic(node: LogicNode, depth: int = 0) -> str:
    """The text of `node` where it sits `depth` levels down: each '(',
    negation and quantifier body is one level."""
    if depth > MAX_NESTING:
        raise ParseError(TOO_DEEP)
    t = type(node)
    if t is Proposition:
        return node.name
    if t is Atom:
        if not node.terms:
            return node.predicate
        args = ", ".join(term.name for term in node.terms)
        return f"{node.predicate}({args})"
    if t is Not:
        return "¬" + print_logic(node.child, depth + 1)
    if t is And:
        return "(" + " ∧ ".join([print_logic(c, depth + 1) for c in node.children]) + ")"
    if t is Or:
        return "(" + " ∨ ".join([print_logic(c, depth + 1) for c in node.children]) + ")"
    if t is Quantified:  # '(' and the body
        body = print_logic(node.body, depth + 2)
        return "(" + _print_quantifier(node.kind, node.variables) + body + ")"
    raise TypeError(f"not a logic node: {node!r}")


def _print_quantifier(kind: str, variables) -> str:
    glyph = "∀" if kind == FORALL else "∃"
    return glyph + " " + " ".join(variables) + ". "


def print_fol(node: LogicNode) -> str:
    """The quantifier chain at the root is printed without parentheses; each
    of its bodies is still one level down."""
    prefix = ""
    depth = 0
    while type(node) is Quantified:
        prefix += _print_quantifier(node.kind, node.variables)
        node = node.body
        depth += 1
    return prefix + print_logic(node, depth)


def print_regex(node: RegexAst, depth: int = 0) -> str:
    """The text of `node` where it sits `depth` levels down: each group and
    star is one level."""
    if depth > MAX_NESTING:
        raise ParseError(TOO_DEEP)
    t = type(node)
    if t is Literal:
        return node.symbol
    if t is Star:
        if type(node.child) is Concat:  # a group and its star
            return "(" + print_regex(node.child, depth + 2) + ")*"
        return print_regex(node.child, depth + 1) + "*"
    if t is Concat:
        return "".join([print_regex(c, depth) for c in node.children])
    raise TypeError(f"not a regex node: {node!r}")


def canonical_text(formalism: str, ast) -> str:
    if formalism == "prop":
        return print_logic(ast)
    if formalism == "fol":
        return print_fol(ast)
    if formalism == "regex":
        return print_regex(ast)
    raise ValueError(f"unknown formalism {formalism!r}")


def make_expression(formalism: str, ast, keep_tree: bool = True) -> FormalExpression:
    """The one constructor of FormalExpression: raises ParseError when the
    canonical text of `ast` would nest past MAX_NESTING. With `keep_tree`
    false the expression keeps only its text, which is sound only for a
    logic tree that is the parse of that text (see FormalExpression): only
    `parse_expression` passes False, and only for prop and fol."""
    text = canonical_text(formalism, ast)
    return FormalExpression(formalism, ast if keep_tree else None, text)
