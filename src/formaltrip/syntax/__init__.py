"""ASTs, parsers, printers, and LLM-output extraction."""

from .extract import NonCompliant, extract_formal
from .nodes import (
    EXISTS,
    FOL,
    FORALL,
    PROP,
    REGEX,
    And,
    Atom,
    Concat,
    Constant,
    FormalExpression,
    Literal,
    LogicNode,
    Not,
    Or,
    Proposition,
    Quantified,
    RegexAst,
    Star,
    Variable,
)
from .parse import ArityError, ParseError, parse_expression, parse_fol, parse_prop, parse_regex
from .printer import canonical_text, make_expression
from .simplify import simplify_expression

__all__ = [
    "EXISTS", "FOL", "FORALL", "PROP", "REGEX",
    "And", "ArityError", "Atom", "Concat", "Constant",
    "FormalExpression", "Literal", "LogicNode", "NonCompliant", "Not", "Or",
    "ParseError", "Proposition", "Quantified", "RegexAst", "Star",
    "Variable", "canonical_text",
    "extract_formal", "make_expression",
    "parse_expression", "parse_fol", "parse_prop", "parse_regex",
    "simplify_expression",
]
