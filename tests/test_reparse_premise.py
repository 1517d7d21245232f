"""The premise of `parse_expression`'s one table: a parser output is a
fixed point of print-then-parse, and the printer refuses its canonical text
exactly when that text would nest deeper than the parser admits, as told by
`reference_print`, a printer and nesting count of its own kept here.

Texts are written from seeded random trees with respaced tokens, ASCII
aliases, and parentheses added or dropped; each text that parses is checked
with the table-free parsers only."""

import random
import re

import pytest

from conftest import random_fol, random_prop, random_regex
from formaltrip.syntax import ParseError, parse_fol, parse_prop, parse_regex
from formaltrip.syntax.nodes import (
    EXISTS,
    FORALL,
    And,
    Atom,
    Concat,
    Constant,
    Literal,
    Not,
    Or,
    Proposition,
    Quantified,
    Star,
    Variable,
)
from formaltrip.syntax.parse import (
    AND_WORDS,
    EXISTS_WORDS,
    FORALL_WORDS,
    MAX_NESTING,
    NOT_WORDS,
    OR_WORDS,
)
from formaltrip.syntax.printer import canonical_text
from test_nesting_bound import AT_BOUND, DEPTH_40, PRINTED_TOO_DEEP

TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"
ALPHABET = {"0", "1"}
PARSERS = {
    "prop": parse_prop,
    "fol": parse_fol,
    "regex": lambda text: parse_regex(text, ALPHABET),
}
# every spelling the parser accepts, sorted so that a seed picks the same ones
ALIASES = {
    "not": sorted(NOT_WORDS),
    "and": sorted(AND_WORDS),
    "or": sorted(OR_WORDS),
    FORALL: sorted(FORALL_WORDS),
    EXISTS: sorted(EXISTS_WORDS),
}
GLYPHS = {"¬": "not", "∧": "and", "∨": "or", "∀": FORALL, "∃": EXISTS}


def logic_tokens(rng, node) -> list[str]:
    """Tokens of one text for `node`; it may parse to another tree."""
    if isinstance(node, Proposition):
        return [node.name]
    if isinstance(node, Atom):
        if not node.terms:
            return [node.predicate]
        args = [tok for t in node.terms for tok in (t.name, ",")][:-1]
        return [node.predicate, "(", *args, ")"]
    if isinstance(node, Not):
        out = [rng.choice(ALIASES["not"]), *logic_tokens(rng, node.child)]
    elif isinstance(node, (And, Or)):
        out = []
        for child in node.children:
            if out:
                out.append(rng.choice(ALIASES["and" if isinstance(node, And) else "or"]))
            out += logic_tokens(rng, child)
        return _parenthesized(rng, out, 0.8)
    else:
        dot = ["."] if rng.random() < 0.8 else []
        out = [rng.choice(ALIASES[node.kind]), *node.variables, *dot, *logic_tokens(rng, node.body)]
        return _parenthesized(rng, out, 0.7)
    return _parenthesized(rng, out, 0.1)


def regex_tokens(rng, node) -> list[str]:
    if isinstance(node, Literal):
        out = [node.symbol]
    elif isinstance(node, Star):
        out = [*_parenthesized(rng, regex_tokens(rng, node.child), 0.2), "*"]
    else:
        out = [tok for child in node.children for tok in regex_tokens(rng, child)]
        return _parenthesized(rng, out, 0.3)
    return _parenthesized(rng, out, 0.1)


def respelled(rng, formalism, tree) -> str:
    """The canonical text of `tree`, respaced and with each operator in a
    random alias: the same parentheses, so about the same nesting."""
    text = reference_print(formalism, tree)[0]
    if formalism == "regex":
        return joined(rng, list(text))
    tokens = re.findall(r"\w+|\S", text)
    return joined(rng, [rng.choice(ALIASES[GLYPHS[t]]) if t in GLYPHS else t for t in tokens])


def _parenthesized(rng, tokens, p):
    return ["(", *tokens, ")"] if rng.random() < p else tokens


def joined(rng, tokens) -> str:
    """The tokens with zero to two spaces between: one where two words meet,
    none before a star (which must follow what it stars)."""
    text = ""
    for tok in tokens:
        if tok == "*":
            space = ""
        elif text[-1:].isalnum() and tok[0].isalnum():
            space = " "
        else:
            space = rng.choice(("", " ", "  "))
        text += space + tok
    return text


def spine(rng, formalism, target):
    """A tree grown one wrapper at a time until its canonical text nests
    about `target` levels, to reach both sides of the nesting bound."""
    leaf = {"prop": Proposition("p2"), "fol": Atom("pred2", (Constant("c2"),)), "regex": Literal("1")}
    node = {"prop": Proposition("p1"), "fol": Atom("pred1", (Constant("c1"),)), "regex": Literal("0")}
    node, leaf = node[formalism], leaf[formalism]
    levels = 0
    while levels < target:
        kind = rng.randrange(4 if formalism == "fol" else 3)
        if formalism == "regex":
            if kind == 0:
                levels += 2 if type(node) is Concat else 1
                node = Star(node)
            else:
                node = Concat((leaf, node) if kind == 1 else (node, leaf))
            continue
        # an And right under an And would flatten away a level when parsed
        junction = Or if type(node) is And else And if type(node) is Or else rng.choice((And, Or))
        if kind == 0:
            node = Not(node)
            levels += 1
        elif kind == 3:
            name = f"x{levels % 5}"
            body = junction((Atom("pred2", (Variable(name),)), node))
            node = Quantified(rng.choice((FORALL, EXISTS)), (name,), body)
            levels += 3
        else:
            node = junction((leaf, node))
            levels += 1
    return node


def cases(seed):
    rng = random.Random(seed)
    random_tree = {"prop": random_prop, "fol": random_fol, "regex": random_regex}
    for i in range(400):
        formalism = ("prop", "fol", "regex")[i % 3]
        if i % 2:
            tree = spine(rng, formalism, rng.randrange(90, 115))
        else:
            tree = random_tree[formalism](rng, max_depth=rng.randrange(1, 6))
        yield formalism, respelled(rng, formalism, tree)
        for _ in range(2):
            tokens = regex_tokens(rng, tree) if formalism == "regex" else logic_tokens(rng, tree)
            yield formalism, joined(rng, tokens)


def reference_print(formalism, tree) -> tuple[str, int]:
    """The canonical text of `tree`, however deep, and the nesting the
    parser counts in it: each '(', negation and quantifier body of a logic
    formula, and each group and star of a regex, is one level."""
    if formalism == "regex":
        return _regex_print(tree)
    prefix, levels = "", 0
    while formalism == "fol" and type(tree) is Quantified:  # the root chain, printed bare
        prefix += _quantifier(tree)
        levels += 1
        tree = tree.body
    text, nesting = _logic_print(tree)
    return prefix + text, levels + nesting


def _quantifier(node) -> str:
    return ("∀ " if node.kind == FORALL else "∃ ") + " ".join(node.variables) + ". "


def _logic_print(node) -> tuple[str, int]:
    t = type(node)
    if t is Proposition:
        return node.name, 0
    if t is Atom:
        args = ", ".join(term.name for term in node.terms)
        return (f"{node.predicate}({args})" if node.terms else node.predicate), 0
    if t is Not:
        text, nesting = _logic_print(node.child)
        return "¬" + text, 1 + nesting
    if t is Quantified:  # '(' and the body
        text, nesting = _logic_print(node.body)
        return f"({_quantifier(node)}{text})", 2 + nesting
    parts = [_logic_print(child) for child in node.children]
    joiner = " ∧ " if t is And else " ∨ "
    return "(" + joiner.join(text for text, _ in parts) + ")", 1 + max(n for _, n in parts)


def _regex_print(node) -> tuple[str, int]:
    t = type(node)
    if t is Literal:
        return node.symbol, 0
    if t is Star:
        text, nesting = _regex_print(node.child)
        if type(node.child) is Concat:  # a group and its star
            return f"({text})*", 2 + nesting
        return text + "*", 1 + nesting
    parts = [_regex_print(child) for child in node.children]
    return "".join(text for text, _ in parts), max(n for _, n in parts)


def check(formalism, text, outcomes):
    """Parse `text`; the printer refuses its canonical text exactly when the
    reference count of its nesting passes the bound, when the parser refuses
    the reference text too, and otherwise that text reparses to the same tree. Returns that count, or None when `text` itself
    does not parse."""
    parse = PARSERS[formalism]
    try:
        tree = parse(text)
    except ParseError:
        return None
    reference, nesting = reference_print(formalism, tree)
    try:
        printed = canonical_text(formalism, tree)
    except ParseError as e:
        assert nesting > MAX_NESTING, f"{reference!r} from {text!r} refused at nesting {nesting}"
        assert str(e) == TOO_DEEP
        with pytest.raises(ParseError, match=TOO_DEEP):
            parse(reference)
        outcomes["too deep"] += 1
    else:
        assert nesting <= MAX_NESTING, f"{printed!r} from {text!r} printed at nesting {nesting}"
        assert printed == reference
        assert parse(printed) == tree, f"{printed!r} from {text!r}"
        outcomes["within"] += 1
    return nesting


SHAPES = {**AT_BOUND, **DEPTH_40, **{name: ("fol", text) for name, text in PRINTED_TOO_DEEP.items()}}


@pytest.mark.parametrize("formalism,text", SHAPES.values(), ids=SHAPES)
def test_the_nesting_bound_shapes_reparse_exactly_when_counted_within(formalism, text):
    outcomes = {"within": 0, "too deep": 0}
    assert check(formalism, text, outcomes) is not None
    deeper = "¬" + text if formalism != "regex" else "(" + text + ")*"
    check(formalism, deeper, outcomes)


@pytest.mark.parametrize("seed", [0, 1])
def test_a_parse_reparses_from_its_canonical_text_when_it_nests_within_the_bound(seed):
    outcomes = {"within": 0, "too deep": 0}
    near_the_bound = dict.fromkeys(PARSERS, 0)
    for formalism, text in cases(seed):
        nesting = check(formalism, text, outcomes)
        if nesting is not None:
            near_the_bound[formalism] += abs(nesting - MAX_NESTING) <= 5
    assert outcomes["within"] > 800 and outcomes["too deep"] > 10, outcomes
    assert all(near_the_bound.values()), near_the_bound
