"""Tokenizers and recursive-descent parsers for the three formalisms.

Parsing normalizes layout only: redundant parentheses are dropped and
directly nested And/Or chains are flattened to n-ary nodes. No semantic
rewriting happens here (double negations survive, star-of-star survives);
equivalence is the verifiers' job.
"""

from __future__ import annotations

import re
import string
import weakref

from .nodes import (
    EXISTS,
    FOL,
    FORALL,
    MAX_NESTING,
    PROP,
    REGEX,
    TOO_DEEP,
    Atom,
    Concat,
    Constant,
    FormalExpression,
    Literal,
    LogicNode,
    Not,
    ParseError,
    Proposition,
    Quantified,
    RegexAst,
    Star,
    Variable,
    flatten_and,
    flatten_or,
    walk,
)
from .printer import make_expression


class ArityError(ParseError):
    """A predicate used with two different arities in one formula."""

    def __init__(self, predicate: str, seen: int, expected: int, position: int = 0):
        super().__init__(
            f"predicate {predicate!r} used with arity {seen}, expected {expected}",
            position,
        )
        self.predicate = predicate
        self.seen = seen
        self.expected = expected


# ---------------------------------------------------------------------------
# shared logic tokenizer and parser

NOT_WORDS = {"¬", "~", "!", "not", "NOT", "Not"}
AND_WORDS = {"∧", "&", "&&", "and", "AND", "And", "/\\"}
OR_WORDS = {"∨", "|", "||", "or", "OR", "Or", "\\/"}
FORALL_WORDS = {"∀", "forall", "all", "ALL", "All", "Forall", "FORALL"}
EXISTS_WORDS = {"∃", "exists", "EXISTS", "Exists", "exist"}

_REJECTED = {"→", "↔", "⇒", "⇔", "=>", "<=>", "=", "≠", "!=", "+", "?"}

_LOGIC_TOKEN = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"
    r"|¬|∧|∨|∀|∃|&&|\|\||<=>|=>|!=|/\\|\\/|[~!&|().,=≠→↔⇒⇔+?*]"
    r"|\S"
)
_IDENT_START = frozenset(string.ascii_letters + "_")
_WORD_CLASS = {
    word: cls
    for cls, words in (
        ("not", NOT_WORDS), ("and", AND_WORDS), ("or", OR_WORDS),
        (FORALL, FORALL_WORDS), (EXISTS, EXISTS_WORDS),
    )
    for word in words
}
# an accepted token either starts like an identifier or is one of these
_OPERATORS = frozenset(_WORD_CLASS) | {"(", ")", ".", ",", "*"}
_END = ""  # appended after the last token

class _Failure(Exception):
    """A parse error located by token index; `_located` turns it into a
    ParseError with a source position."""

    def __init__(self, message: str, index: int, expected: str):
        super().__init__(message)
        self.index = index
        self.expected = expected


def _located(text: str, failure: _Failure) -> ParseError:
    """The ParseError for `failure`. A rejected operator or a character
    outside the grammar anywhere in `text` is reported instead, as the
    first thing wrong with the input; otherwise the failing token's start
    is found by tokenizing again, which is only paid for on errors."""
    position = len(text)
    for i, m in enumerate(_LOGIC_TOKEN.finditer(text)):
        tok = m.group()
        if tok in _REJECTED:
            return ParseError(f"operator {tok!r} is not part of the grammar", m.start())
        if tok[0] not in _IDENT_START and tok not in _OPERATORS:
            return ParseError(f"unexpected character {tok!r}", m.start())
        if i == failure.index:
            position = m.start()
    return ParseError(str(failure), position, failure.expected)


def _parse_logic(text: str, fol: bool) -> LogicNode:
    if not text.strip():
        raise ParseError("empty input", 0, "formula")
    toks = _LOGIC_TOKEN.findall(text)
    toks.append(_END)
    parser = _LogicParser(toks, fol)
    try:
        node = parser.disjunction()
        tok = toks[parser.i]
        if tok != _END:
            raise _Failure(f"trailing input {tok!r}", parser.i, "end of input")
    except _Failure as failure:
        raise _located(text, failure) from None
    return node


class _LogicParser:
    """Recursive descent over a token list that ends with `_END`. Any token
    that is neither an identifier nor an operator stops every rule, so a
    parse that succeeds has met none.

    Leaves are hash-consed within the parse: each distinct Proposition,
    term and Atom is built once and shared by every later occurrence."""

    def __init__(self, toks: list[str], fol: bool):
        self.toks = toks
        self.i = 0
        self.fol = fol
        self.scopes: list[set[str]] = []
        self.depth = 0
        self.leaves: dict[tuple, LogicNode | Constant | Variable] = {}

    def leaf(self, cls, *fields):
        """The one `cls(*fields)` of this parse, built on first use."""
        key = (cls, *fields)
        node = self.leaves.get(key)
        if node is None:
            node = self.leaves[key] = cls(*fields)
        return node

    def nested(self, rule) -> LogicNode:
        """`rule()` one nesting level down."""
        if self.depth == MAX_NESTING:
            raise _Failure(TOO_DEEP, self.i, "shallower formula")
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    def take(self) -> str:
        """The next token, consumed; end of input is an error."""
        tok = self.toks[self.i]
        if tok == _END:
            raise _Failure("unexpected end of input", self.i, "expression")
        self.i += 1
        return tok

    def disjunction(self) -> LogicNode:
        parts = [self.conjunction()]
        while self.toks[self.i] in OR_WORDS:
            self.i += 1
            parts.append(self.conjunction())
        return flatten_or(parts) if len(parts) > 1 else parts[0]

    def conjunction(self) -> LogicNode:
        parts = [self.unary()]
        while self.toks[self.i] in AND_WORDS:
            self.i += 1
            parts.append(self.unary())
        return flatten_and(parts) if len(parts) > 1 else parts[0]

    def unary(self) -> LogicNode:
        """A negation, a quantified formula (first-order only), a
        parenthesized formula or an atom."""
        tok = self.toks[self.i]
        self.i += 1
        cls = _WORD_CLASS.get(tok)
        if cls == "not":
            return Not(self.nested(self.unary))
        if self.fol and (cls == FORALL or cls == EXISTS):
            return self.quantified(cls)
        if tok == "(":
            node = self.nested(self.disjunction)
            if self.toks[self.i] != ")":
                raise _Failure("expected ')'", self.i, ")")
            self.i += 1
            return node
        if tok[:1] in _IDENT_START and cls is None:  # a keyword names no atom
            return self.predicate(tok) if self.fol else self.leaf(Proposition, tok)
        if tok == _END:
            raise _Failure("unexpected end of input", self.i - 1, "formula")
        raise _Failure(f"unexpected {tok!r}", self.i - 1, "atom")

    def quantified(self, kind: str) -> LogicNode:
        """The variables and body after a quantifier token."""
        toks = self.toks
        start = self.i - 1
        variables: list[str] = []
        while (tok := toks[self.i])[:1] in _IDENT_START and tok not in _WORD_CLASS:
            # once at least one variable is read, an identifier followed by '('
            # starts the body (a predicate application), e.g. "∀x1 pred3(p5, x1)"
            if variables and toks[self.i + 1] == "(":
                break
            variables.append(tok)
            self.i += 1
        if toks[self.i] == ".":
            self.i += 1
        if not variables:
            raise _Failure("quantifier binds no variables", start, "variable list")
        self.scopes.append(set(variables))
        # maximal scope: the body is the rest of the current subformula
        body = self.nested(self.disjunction)
        self.scopes.pop()
        return Quantified(kind, tuple(variables), body)

    def predicate(self, name: str) -> Atom:
        terms: list[Constant | Variable] = []
        if self.toks[self.i] == "(":
            self.i += 1
            while True:
                arg = self.take()
                if arg[0] not in _IDENT_START:
                    raise _Failure(f"expected term, got {arg!r}", self.i - 1, "term")
                terms.append(self.term(arg))
                sep = self.take()
                if sep == ")":
                    break
                if sep != ",":
                    raise _Failure(f"expected ',' or ')', got {sep!r}", self.i - 1, ", or )")
        # keyed on the built terms: a name is a Variable only inside its scope
        return self.leaf(Atom, name, tuple(terms))

    def term(self, name: str) -> Constant | Variable:
        # bound by an enclosing quantifier => variable; anything else is a constant
        for scope in self.scopes:
            if name in scope:
                return self.leaf(Variable, name)
        return self.leaf(Constant, name)


# ---------------------------------------------------------------------------
# propositional logic

def parse_prop(text: str) -> LogicNode:
    """Parse a propositional formula; ASCII aliases are accepted."""
    return _parse_logic(text, fol=False)


# ---------------------------------------------------------------------------
# first-order logic

def parse_fol(text: str) -> LogicNode:
    """Parse a first-order formula into its logic tree, quantifiers at any
    depth as Quantified nodes. Terms bound by an enclosing quantifier are
    variables, all others constants.
    """
    formula = _parse_logic(text, fol=True)
    seen: dict[str, int] = {}
    for node in walk(formula):
        if type(node) is Atom:
            arity = len(node.terms)
            expected = seen.setdefault(node.predicate, arity)
            if arity != expected:
                raise ArityError(node.predicate, arity, expected)
    return formula


# ---------------------------------------------------------------------------
# regular expressions

DIGIT_ALPHABET = frozenset("0123456789")


def parse_regex(text: str, alphabet: set[str] | None = None) -> RegexAst:
    """Parse a regex built from literals, concatenation, and Kleene star.

    Star binds tighter than concatenation; parentheses group. Only ASCII
    '*' is a star. Literals outside the alphabet are rejected; the default
    alphabet is the digits, matching the generated dataset families.
    """
    if not text.strip():
        raise ParseError("empty input", 0, "regex")
    if alphabet is None:
        alphabet = DIGIT_ALPHABET
    stripped = text.strip()
    node, i, _ = _parse_regex_concat(stripped, 0, alphabet, 0)
    if i != len(stripped):
        raise ParseError(f"trailing input {stripped[i]!r}", i, "end of input")
    return node


def _parse_regex_concat(s: str, i: int, alphabet, depth: int) -> tuple[RegexAst, int, int]:
    """The concatenation from s[i] inside `depth` groups, the index after
    it, and its deepest nesting level counted from the outermost group."""
    parts: list[RegexAst] = []
    deepest = depth
    while i < len(s):
        ch = s[i]
        if ch == ")":
            break
        if ch == "(":
            if depth == MAX_NESTING:
                raise ParseError(TOO_DEEP, i, "shallower regex")
            inner, j, level = _parse_regex_concat(s, i + 1, alphabet, depth + 1)
            if j >= len(s) or s[j] != ")":
                raise ParseError("unbalanced parenthesis", i, ")")
            i = j + 1
            node = inner
        elif ch == "*":
            raise ParseError("star needs a preceding expression", i, "literal or group")
        elif ch.isspace():
            i += 1
            continue
        else:
            if ch in _REJECTED or ch in "¬∧∨∀∃":
                raise ParseError(f"operator {ch!r} is not part of the grammar", i)
            if ch not in alphabet:
                raise ParseError(f"symbol {ch!r} outside the alphabet", i, "alphabet symbol")
            node = Literal(ch)
            level = depth
            i += 1
        while i < len(s) and s[i] == "*":
            if level == MAX_NESTING:
                raise ParseError(TOO_DEEP, i, "shallower regex")
            node = Star(node)
            level += 1
            i += 1
        if level > deepest:
            deepest = level
        parts.append(node)
    if not parts:
        raise ParseError("empty group", i, "regex")
    if len(parts) == 1:
        return parts[0], i, deepest
    flat: list[RegexAst] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.children)
        else:
            flat.append(p)
    return Concat(tuple(flat)), i, deepest


# ---------------------------------------------------------------------------
# any of the three

# Hash-consing over a weak table keyed by canonical text: parsing is a pure
# function and expressions are immutable, so the canonical text of an
# expression some caller still holds is not parsed again. A parse from any
# text is stored under its canonical text, which parses back to an equal
# expression because the printer refuses a tree whose text would nest past
# MAX_NESTING. An entry dies with the last reference to its expression.
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def parse_expression(formalism: str, text: str, alphabet=None) -> FormalExpression:
    """Parse canonical or user text in the given formalism.

    For the canonical text of an expression parsed before with the same
    regex alphabet and still alive, this returns that same expression object.
    """
    alphabet_key = frozenset(alphabet) if formalism == REGEX and alphabet is not None else None
    expr = _LIVE.get((formalism, text, alphabet_key))
    if expr is not None:
        return expr
    if formalism == PROP:
        expr = make_expression(PROP, parse_prop(text))
    elif formalism == FOL:
        expr = make_expression(FOL, parse_fol(text))
    elif formalism == REGEX:
        expr = make_expression(REGEX, parse_regex(text, alphabet))
    else:
        raise ValueError(f"unknown formalism {formalism!r}")
    # keyed by the expression's own text: `text` may be a copy that dies sooner
    _LIVE[formalism, expr.canonical_text, alphabet_key] = expr
    return expr
