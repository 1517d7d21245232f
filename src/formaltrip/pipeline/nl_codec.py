"""Invertible structured-English renderings used by the oracle providers.

The rendering is parenthesis-explicit and deliberately stilted: its only
job is to be losslessly parseable back into the source expression so the
harness itself can be validated end to end. Each node type opens with a
fixed keyword phrase and wraps children in "( ... )". One phrase table
holds every word of the language, and both directions read it.
"""

from __future__ import annotations

from ..syntax.nodes import (
    EXISTS,
    FORALL,
    MAX_NESTING,
    REGEX,
    TOO_DEEP,
    And,
    Atom,
    Concat,
    Constant,
    FormalExpression,
    Literal,
    Not,
    Or,
    ParseError,
    Proposition,
    Quantified,
    Star,
    Variable,
)
from ..syntax.printer import make_expression

# node type -> (opening words, word between the child groups of an n-ary node)
PHRASES = {
    Not: (("the", "negation", "of"), None),
    And: (("the", "conjunction", "of"), "and"),
    Or: (("the", "disjunction", "of"), "or"),
    Star: (("zero", "or", "more", "repetitions", "of"), None),
    Concat: (("the", "sequence", "of"), "then"),
}
# quantifier kind -> (opening words, words after the variable list)
QUANTIFIERS = {
    FORALL: (("for", "every"), (",",)),
    EXISTS: (("there", "exists"), ("such", "that")),
}
# leaf type -> keyword; an atom's terms are leaves of its "of ( ... , ... )"
LEAVES = {
    Proposition: "proposition",
    Atom: "predicate",
    Variable: "variable",
    Constant: "object",
    Literal: "symbol",
}


class NlCodecError(ValueError):
    pass


def describe(expr: FormalExpression) -> str:
    if expr.formalism not in _ENTRIES:
        raise ValueError(f"unknown formalism {expr.formalism!r}")
    if expr.formalism != "fol":
        return _render(expr.ast)
    node, prefix = expr.ast, ""
    while type(node) is Quantified:  # the root chain is rendered without groups
        prefix += _QUANTIFIER_TEXT[node.kind].format(" and ".join(node.variables))
        node = node.body
    return f"{prefix}( {_render(node)} )"


def parse_description(text: str, formalism: str) -> FormalExpression:
    if formalism not in _ENTRIES:
        raise ValueError(f"unknown formalism {formalism!r}")
    parser = _Parser(text, _ENTRIES[formalism])
    ast = parser.node()
    if parser.i < len(parser.tokens):
        raise NlCodecError(f"trailing description text {parser.tokens[parser.i]!r}")
    return make_expression(formalism, ast)


# ---------------------------------------------------------------------------
# rendering

_PHRASE_TEXT = {kind: (" ".join(words) + " ", joiner and f" {joiner} ")
                for kind, (words, joiner) in PHRASES.items()}
_QUANTIFIER_TEXT = {kind: " ".join(words + ("{}",) + after) + " "
                    for kind, (words, after) in QUANTIFIERS.items()}


def _render(node) -> str:
    kind = type(node)
    word = LEAVES.get(kind)
    if word is not None:
        if kind is Atom:
            head = f"{word} {node.predicate}"
            return f"{head} of ( {' , '.join(map(_render, node.terms))} )" if node.terms else head
        return f"{word} {node.symbol if kind is Literal else node.name}"
    if kind is Quantified:
        head = _QUANTIFIER_TEXT[node.kind].format(" and ".join(node.variables))
        return f"{head}( {_render(node.body)} )"
    opening, joiner = _PHRASE_TEXT[kind]
    if joiner is None:
        return f"{opening}( {_render(node.child)} )"
    return opening + joiner.join([f"( {_render(c)} )" for c in node.children])


# ---------------------------------------------------------------------------
# parsing

def _entries(kinds) -> dict:
    """Key each entry by its opening word, or by "the" and the word after it,
    to its kind, the rest of its opening words, and its joiner or closing words."""
    table = {}
    for kind in kinds:
        words, after = PHRASES.get(kind) or QUANTIFIERS.get(kind) or ((LEAVES[kind],), None)
        n = 2 if words[0] == "the" else 1
        table[" ".join(words[:n])] = (kind, words[n:], after)
    return table


_LOGIC = _entries((Proposition, Atom, Not, And, Or, FORALL, EXISTS))
_LOGIC["("] = ("(", (), None)  # a logic node may stand in a group of its own
_TERMS = {LEAVES[Variable]: Variable, LEAVES[Constant]: Constant}
_ENTRIES = {"prop": _LOGIC, "fol": _LOGIC, REGEX: _entries((Literal, Star, Concat))}


class _Parser:
    def __init__(self, text: str, entries: dict):
        self.tokens = text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
        self.i = 0
        self.entries = entries

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        if self.i >= len(self.tokens):
            raise NlCodecError("unexpected end of description")
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, *words):
        for w in words:
            tok = self.next()
            if tok != w:
                raise NlCodecError(f"expected {w!r}, got {tok!r}")

    def group(self, depth: int):
        self.expect("(")
        node = self.node(depth)
        self.expect(")")
        return node

    def node(self, depth: int = 0):
        """The node `depth` levels down: each group and quantifier body is one
        level, as in the parser. A description of a parsed expression opens
        at most one level more than its canonical text, the group around a
        first-order body or a regex sequence; `make_expression` refuses the
        rest of what nests too deep."""
        if depth > MAX_NESTING + 1:
            raise ParseError(TOO_DEEP)
        tok = self.next()
        entry = self.entries.get("the " + self.next() if tok == "the" else tok)
        if entry is None:
            raise NlCodecError(f"unexpected token {tok!r} in description")
        kind, rest, after = entry
        if kind is Proposition or kind is Literal:
            return kind(self.next())
        if kind is Atom:
            return self.atom()
        if kind == "(":
            self.i -= 1
            return self.group(depth + 1)
        self.expect(*rest)
        if kind in QUANTIFIERS:
            names = [self.next()]
            while self.peek() == "and":
                self.next()
                names.append(self.next())
            self.expect(*after)
            return Quantified(kind, tuple(names), self.node(depth + 1))
        if after is None:
            return kind(self.group(depth + 1))
        children = [self.group(depth + 1)]
        while self.peek() == after and self.i + 1 < len(self.tokens) and self.tokens[self.i + 1] == "(":
            self.next()
            children.append(self.group(depth + 1))
        return kind(tuple(children))

    def atom(self):
        name, terms = self.next(), []
        if self.peek() == "of":
            self.expect("of", "(")
            sep = ","
            while sep == ",":
                role = _TERMS.get(self.next())
                if role is None:
                    raise NlCodecError(f"expected term role, got {self.tokens[self.i - 1]!r}")
                terms.append(role(self.next()))
                sep = self.next()
            if sep != ")":
                raise NlCodecError(f"expected ',' or ')', got {sep!r}")
        return Atom(name, tuple(terms))
