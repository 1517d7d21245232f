"""Tokenizers and parsers for the three formalisms: the logic parser is one
loop over the token list with a stack of open groups, the regex parser
recurses once per group, and both reject text nested past MAX_NESTING.

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
    And,
    Atom,
    Concat,
    Constant,
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
    Variable,
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
    """The logic tree of `text`, or its located ParseError."""
    if not text.strip():
        raise ParseError("empty input", 0, "formula")
    toks = _LOGIC_TOKEN.findall(text)
    toks.append(_END)
    try:
        return _read_logic(toks, fol)
    except _Failure as failure:
        raise _located(text, failure) from None


def _read_logic(toks: list[str], fol: bool) -> LogicNode:
    """The logic tree of a token list that ends with `_END`. Or binds loosest,
    then And, then ¬ and (first-order only) quantifiers, whose body reaches
    to the end of the enclosing group. Each open '(' and quantifier body is
    a frame that keeps the enclosing Or parts, And parts and pending
    negations; it ends at the first token that is neither And nor Or. Each
    '(', negation and quantifier body is one nesting level. A token that is
    neither an identifier nor an operator is a failure wherever it stands.

    Each distinct Proposition, term and Atom is built once per parse and
    shared. A predicate used with two arities raises ArityError once the
    whole text has parsed."""
    word_class = _WORD_CLASS
    i = depth = nots = 0
    ors: list[LogicNode] = []
    ands: list[LogicNode] = []
    # per open frame: the enclosing ors, ands and nots, and the quantifier
    # (kind, variables) whose body it is, or None for a '('
    frames: list[tuple] = []
    bound: dict[str, int] = {}  # variable name -> open quantifiers binding it
    leaves: dict = {}
    arities: dict[str, int] = {}
    clash = None  # the first (predicate, arity, expected) that disagrees
    while True:
        # one operand: prefix operators open levels until an atom completes it
        tok = toks[i]
        i += 1
        cls = word_class.get(tok)
        if cls is None and tok[:1] in _IDENT_START:
            if not fol:
                node = leaves.get(tok)
                if node is None:
                    node = leaves[tok] = Proposition(tok)
            else:
                terms: list[Constant | Variable] = []
                if toks[i] == "(":
                    i += 1
                    while True:
                        arg = toks[i]
                        if arg == _END:
                            raise _Failure("unexpected end of input", i, "expression")
                        if arg[0] not in _IDENT_START:
                            raise _Failure(f"expected term, got {arg!r}", i, "term")
                        # bound by an enclosing quantifier => variable, else constant
                        key = (Variable if bound.get(arg) else Constant, arg)
                        term = leaves.get(key)
                        if term is None:
                            term = leaves[key] = key[0](arg)
                        terms.append(term)
                        sep = toks[i + 1]
                        i += 2
                        if sep == ")":
                            break
                        if sep != ",":
                            if sep == _END:
                                raise _Failure("unexpected end of input", i - 1, "expression")
                            raise _Failure(f"expected ',' or ')', got {sep!r}", i - 1, ", or )")
                # keyed on the built terms: a name is a Variable only inside its scope
                key = (tok, *terms)
                node = leaves.get(key)
                if node is None:
                    node = leaves[key] = Atom(tok, tuple(terms))
                    expected = arities.setdefault(tok, len(terms))
                    if clash is None and expected != len(terms):
                        clash = (tok, len(terms), expected)
        elif cls == "not":
            if depth == MAX_NESTING:
                raise _Failure(TOO_DEEP, i, "shallower formula")
            depth += 1
            nots += 1
            continue
        elif tok == "(" or fol and (cls == FORALL or cls == EXISTS):
            quantifier = None
            if tok != "(":
                start = i - 1
                variables: list[str] = []
                while (var := toks[i])[:1] in _IDENT_START and var not in word_class:
                    # once at least one variable is read, an identifier followed
                    # by '(' starts the body, e.g. "∀x1 pred3(p5, x1)"
                    if variables and toks[i + 1] == "(":
                        break
                    variables.append(var)
                    i += 1
                if toks[i] == ".":
                    i += 1
                if not variables:
                    raise _Failure("quantifier binds no variables", start, "variable list")
                quantifier = (cls, tuple(variables))
                for var in set(variables):
                    bound[var] = bound.get(var, 0) + 1
            if depth == MAX_NESTING:
                raise _Failure(TOO_DEEP, i, "shallower formula")
            depth += 1
            frames.append((ors, ands, nots, quantifier))
            ors, ands, nots = [], [], 0
            continue
        elif tok == _END:
            raise _Failure("unexpected end of input", i - 1, "formula")
        else:
            raise _Failure(f"unexpected {tok!r}", i - 1, "atom")
        # the operand is complete: close its negations, then every frame
        # that the next token ends
        while True:
            if nots:
                depth -= nots
                for _ in range(nots):
                    node = Not(node)
                nots = 0
            tok = toks[i]
            # a parenthesized chain of the same kind is spliced in
            conjoined = tok in AND_WORDS
            if conjoined or ands:
                ands += node.children if type(node) is And else (node,)
                if conjoined:
                    break
                node = And(tuple(ands))
                ands = []
            disjoined = tok in OR_WORDS
            if disjoined or ors:
                ors += node.children if type(node) is Or else (node,)
                if disjoined:
                    break
                node = Or(tuple(ors))
            if not frames:
                if tok != _END:
                    raise _Failure(f"trailing input {tok!r}", i, "end of input")
                if clash is not None:
                    raise ArityError(*clash)
                return node
            ors, ands, nots, quantifier = frames.pop()
            depth -= 1
            if quantifier is None:
                if tok != ")":
                    raise _Failure("expected ')'", i, ")")
                i += 1
            else:
                kind, variables = quantifier
                for var in set(variables):
                    bound[var] -= 1
                node = Quantified(kind, variables, node)
        i += 1


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
    return _parse_logic(text, fol=True)


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


def parse_expression(
    formalism: str, text: str, alphabet=None, *, keep_tree: bool = True
) -> FormalExpression:
    """Parse canonical or user text in the given formalism.

    While an expression parsed before with the same regex alphabet is alive,
    any text whose parse prints as its canonical text returns that object.
    Otherwise, with `keep_tree` false, a logic expression drops its tree
    and rebuilds it from its text when `.ast` is first read; a regex
    expression keeps its tree either way.
    """
    alphabet_key = frozenset(alphabet) if formalism == REGEX and alphabet is not None else None
    expr = _LIVE.get((formalism, text, alphabet_key))
    if expr is not None:
        return expr
    if formalism == PROP:
        expr = make_expression(PROP, parse_prop(text), keep_tree)
    elif formalism == FOL:
        expr = make_expression(FOL, parse_fol(text), keep_tree)
    elif formalism == REGEX:
        expr = make_expression(REGEX, parse_regex(text, alphabet))
    else:
        raise ValueError(f"unknown formalism {formalism!r}")
    # keyed by the expression's own text: `text` may be a copy that dies sooner
    return _LIVE.setdefault((formalism, expr.canonical_text, alphabet_key), expr)
