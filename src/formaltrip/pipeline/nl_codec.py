"""Invertible structured-English renderings used by the oracle providers.

The rendering is parenthesis-explicit and deliberately stilted: its only
job is to be losslessly parseable back into the source expression so the
harness itself can be validated end to end. Each node type opens with a
fixed keyword phrase and wraps children in "( ... )".
"""

from __future__ import annotations

from ..syntax.nodes import (
    EXISTS,
    FORALL,
    And,
    Atom,
    Concat,
    Constant,
    FormalExpression,
    Literal,
    Not,
    Or,
    Proposition,
    Quantified,
    Star,
    Variable,
)
from ..syntax.printer import make_expression


class NlCodecError(ValueError):
    pass


def describe(expr: FormalExpression) -> str:
    if expr.formalism == "prop":
        return _render_logic(expr.ast)
    if expr.formalism == "fol":
        return _render_fol(expr.ast)
    if expr.formalism == "regex":
        return _render_regex(expr.ast)
    raise ValueError(f"unknown formalism {expr.formalism!r}")


def parse_description(text: str, formalism: str) -> FormalExpression:
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    if formalism == "prop" or formalism == "fol":
        ast = parser.logic()
    elif formalism == "regex":
        ast = parser.regex()
    else:
        raise ValueError(f"unknown formalism {formalism!r}")
    parser.expect_end()
    return make_expression(formalism, ast)


# ---------------------------------------------------------------------------
# rendering

def _render_logic(node) -> str:
    if isinstance(node, Proposition):
        return f"proposition {node.name}"
    if isinstance(node, Atom):
        if not node.terms:
            return f"predicate {node.predicate}"
        terms = " , ".join(
            f"variable {t.name}" if isinstance(t, Variable) else f"object {t.name}"
            for t in node.terms
        )
        return f"predicate {node.predicate} of ( {terms} )"
    if isinstance(node, Not):
        return f"the negation of ( {_render_logic(node.child)} )"
    if isinstance(node, And):
        return "the conjunction of " + " and ".join(
            f"( {_render_logic(c)} )" for c in node.children
        )
    if isinstance(node, Or):
        return "the disjunction of " + " or ".join(
            f"( {_render_logic(c)} )" for c in node.children
        )
    if isinstance(node, Quantified):
        return _render_quantifier(node.kind, node.variables) + f"( {_render_logic(node.body)} )"
    raise TypeError(f"not a logic node: {node!r}")


def _render_quantifier(kind: str, variables) -> str:
    names = " and ".join(variables)
    if kind == FORALL:
        return f"for every {names} , "
    return f"there exists {names} such that "


def _render_fol(node) -> str:
    """The quantifier chain at the root is rendered without groups."""
    out = ""
    while type(node) is Quantified:
        out += _render_quantifier(node.kind, node.variables)
        node = node.body
    return out + f"( {_render_logic(node)} )"


def _render_regex(node) -> str:
    if isinstance(node, Literal):
        return f"symbol {node.symbol}"
    if isinstance(node, Star):
        return f"zero or more repetitions of ( {_render_regex(node.child)} )"
    if isinstance(node, Concat):
        return "the sequence of " + " then ".join(
            f"( {_render_regex(c)} )" for c in node.children
        )
    raise TypeError(f"not a regex node: {node!r}")


# ---------------------------------------------------------------------------
# parsing

def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise NlCodecError("unexpected end of description")
        self.i += 1
        return tok

    def expect(self, *words: str):
        for w in words:
            tok = self.next()
            if tok != w:
                raise NlCodecError(f"expected {w!r}, got {tok!r}")

    def expect_end(self):
        if self.peek() is not None:
            raise NlCodecError(f"trailing description text {self.peek()!r}")

    def group(self, inner):
        self.expect("(")
        node = inner()
        self.expect(")")
        return node

    def groups(self, inner, joiner: str) -> list:
        out = [self.group(inner)]
        while self.peek() == joiner and self.i + 1 < len(self.tokens) and self.tokens[self.i + 1] == "(":
            self.next()
            out.append(self.group(inner))
        return out

    # -- logic ------------------------------------------------------------

    def logic(self):
        tok = self.peek()
        if tok == "(":
            return self.group(self.logic)
        if tok == "proposition":
            self.next()
            return Proposition(self.next())
        if tok == "predicate":
            return self._atom()
        if tok == "the":
            return self._the()
        if tok == "for":
            self.expect("for", "every")
            names = self._var_names(stop=",")
            self.expect(",")
            return Quantified(FORALL, names, self._quant_body())
        if tok == "there":
            self.expect("there", "exists")
            names = self._var_names(stop="such")
            self.expect("such", "that")
            return Quantified(EXISTS, names, self._quant_body())
        raise NlCodecError(f"unexpected token {tok!r} in logic description")

    def _quant_body(self):
        # a root chain leaves its inner quantifiers ungrouped
        if self.peek() == "(":
            return self.group(self.logic)
        return self.logic()

    def _the(self):
        self.expect("the")
        kind = self.next()
        self.expect("of")
        if kind == "negation":
            return Not(self.group(self.logic))
        if kind == "conjunction":
            children = self.groups(self.logic, "and")
            return And(tuple(children))
        if kind == "disjunction":
            children = self.groups(self.logic, "or")
            return Or(tuple(children))
        raise NlCodecError(f"unknown connective {kind!r}")

    def _atom(self):
        self.expect("predicate")
        name = self.next()
        if self.peek() != "of":
            return Atom(name, ())
        self.expect("of", "(")
        terms = []
        while True:
            role = self.next()
            if role not in ("object", "variable"):
                raise NlCodecError(f"expected term role, got {role!r}")
            term_name = self.next()
            terms.append(Variable(term_name) if role == "variable" else Constant(term_name))
            sep = self.next()
            if sep == ")":
                break
            if sep != ",":
                raise NlCodecError(f"expected ',' or ')', got {sep!r}")
        return Atom(name, tuple(terms))

    def _var_names(self, stop: str) -> tuple[str, ...]:
        names = [self.next()]
        while self.peek() == "and":
            self.next()
            names.append(self.next())
        if self.peek() != stop:
            raise NlCodecError(f"expected {stop!r} after variable list")
        return tuple(names)

    # -- regex ------------------------------------------------------------

    def regex(self):
        tok = self.peek()
        if tok == "symbol":
            self.next()
            return Literal(self.next())
        if tok == "zero":
            self.expect("zero", "or", "more", "repetitions", "of")
            return Star(self.group(self.regex))
        if tok == "the":
            self.expect("the", "sequence", "of")
            children = self.groups(self.regex, "then")
            return Concat(tuple(children))
        raise NlCodecError(f"unexpected token {tok!r} in regex description")
