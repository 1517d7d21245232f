"""parse_expression returns the live expression for a canonical text it has
already parsed, keyed by formalism, text and regex alphabet. Within one
parse, equal leaves are one object, and no tree node has a `__dict__`."""

import gc
import sys
import threading
import weakref

import pytest

from formaltrip.syntax import ParseError, make_expression, parse_expression, parse_fol, parse_prop
from formaltrip.syntax import parse as parse_module
from formaltrip.syntax.nodes import (
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


def live_keys():
    return set(parse_module._LIVE.keys())


@pytest.mark.parametrize(
    "formalism,text,alphabet",
    [
        ("prop", "(p1 ∧ ¬(p2 ∨ p3))", None),
        ("fol", "∀ x1. (pred1(x1) ∨ pred2(x1, c1))", None),
        ("regex", "0(12)*", None),
        ("regex", "ab*", {"a", "b"}),
    ],
)
def test_a_canonical_text_parsed_twice_is_one_object(formalism, text, alphabet):
    first = parse_expression(formalism, text, alphabet)
    assert first.canonical_text == text
    assert parse_expression(formalism, text, alphabet) is first
    assert parse_expression(formalism, text, sorted(alphabet) if alphabet else None) is first


@pytest.mark.parametrize("text", ["p1 & p2", "( p1 ∧ p2 )"])
def test_a_non_canonical_text_is_not_stored(text):
    expr = parse_expression("prop", text)
    assert expr.canonical_text == "(p1 ∧ p2)"
    assert ("prop", text, None) not in live_keys()
    assert parse_expression("prop", text) is not expr


def test_validity_never_leaks_across_alphabets():
    digits = parse_expression("regex", "2")
    assert digits.canonical_text == "2"
    for alphabet in ({"0", "1"}, []):
        with pytest.raises(ParseError):
            parse_expression("regex", "2", alphabet)
    assert parse_expression("regex", "2") is digits


def test_a_parse_error_stores_nothing():
    with pytest.raises(ParseError):
        parse_expression("prop", "p1 ∧")
    with pytest.raises(ParseError):
        parse_expression("regex", "3", {"0"})
    assert not any(key[1] in ("p1 ∧", "3") for key in live_keys())


def test_an_entry_dies_with_its_expression():
    expr = parse_expression("prop", "(p7 ∨ ¬p8)")
    assert ("prop", "(p7 ∨ ¬p8)", None) in live_keys()
    del expr
    gc.collect()
    assert ("prop", "(p7 ∨ ¬p8)", None) not in live_keys()


def test_concurrent_parses_equal_a_serial_parse():
    texts = [f"(p{i} ∧ ¬p{i + 1})" if i % 2 else f"∃ x1. pred{i}(x1, c{i})" for i in range(200)]
    formalisms = ["prop" if i % 2 else "fol" for i in range(200)]
    results: list[list] = [[], [], [], []]

    def work(slot):
        for formalism, text in zip(formalisms, texts):
            results[slot].append(parse_expression(formalism, text))

    serial = [
        make_expression(f, parse_fol(t) if f == "fol" else parse_prop(t))
        for f, t in zip(formalisms, texts)
    ]
    assert [e.canonical_text for e in serial] == texts
    threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1, 2, 3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * 4


# ---------------------------------------------------------------------------
# compact trees: slotted nodes, and one object per distinct leaf of a parse

def test_nodes_are_slotted():
    nodes = [
        Proposition("p1"), Constant("c1"), Variable("x1"),
        Atom("pred1", (Constant("c1"),)), Not(Proposition("p1")),
        And((Proposition("p1"), Proposition("p2"))),
        Or((Proposition("p1"), Proposition("p2"))),
        Quantified(FORALL, ("x1",), Atom("pred1", (Variable("x1"),))),
        Literal("0"), Concat((Literal("0"), Literal("1"))), Star(Literal("0")),
    ]
    assert len({type(node) for node in nodes}) == 11
    for node in nodes:
        assert not hasattr(node, "__dict__"), type(node).__name__


def test_an_expression_can_still_be_held_weakly():
    expr = parse_expression("prop", "(p1 ∧ ¬p9)")
    assert weakref.ref(expr)() is expr


def test_a_parse_shares_equal_propositions():
    ast = parse_prop("((p1 ∧ p2) ∨ (p1 ∧ ¬p2))")
    left, right = ast.children
    assert left.children[0] is right.children[0]
    assert left.children[1] is right.children[1].child


def test_a_parse_shares_equal_atoms():
    ast = parse_fol("∀ x1. (pred1(x1, c1) ∨ ¬pred1(x1, c1))")
    first, negated = ast.body.children
    assert first is negated.child
    assert first.terms == (Variable("x1"), Constant("c1"))


def test_an_atom_is_shared_by_its_terms_not_its_names():
    ast = parse_fol("(pred1(x1) ∧ ∀ x1. pred1(x1))")
    free, quantified = ast.children
    assert free == Atom("pred1", (Constant("x1"),))
    assert quantified.body == Atom("pred1", (Variable("x1"),))
    assert free != quantified.body
