"""parse_expression returns the live expression for the canonical text of
an expression it has already parsed, from that text or any other, keyed by
formalism, canonical text and regex alphabet. Within one parse, equal leaves
are one object, and no tree node has a `__dict__`."""

import gc
import sys
import threading
import weakref

import pytest

from formaltrip.syntax import ParseError, make_expression, parse_expression, parse_fol, parse_prop
from formaltrip.syntax import parse as parse_module
from formaltrip.syntax.parse import MAX_NESTING
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
from test_nesting_bound import QUANTIFIED_CHAIN


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
def test_a_non_canonical_text_is_no_key_and_reparses_to_the_live_one(text, monkeypatch):
    expr = parse_expression("prop", text)
    assert expr.canonical_text == "(p1 ∧ p2)"
    assert ("prop", text, None) not in live_keys()
    calls = []
    parse_logic = parse_module._parse_logic
    monkeypatch.setattr(parse_module, "_parse_logic", lambda t, fol: calls.append(t) or parse_logic(t, fol))
    assert parse_expression("prop", text) is expr
    assert calls == [text]


@pytest.mark.parametrize(
    "formalism,text,alphabet,canonical",
    [
        ("prop", "( p1 & p2 )", None, "(p1 ∧ p2)"),
        ("fol", "forall x1 . pred1(x1) and not pred2(x1,c1)", None, "∀ x1. (pred1(x1) ∧ ¬pred2(x1, c1))"),
        ("regex", "(0)(1)*", {"0", "1"}, "01*"),
        # the canonical text nests MAX_NESTING levels, so it parses
        pytest.param("prop", "¬ " * MAX_NESTING + "p1", None, "¬" * MAX_NESTING + "p1", id="at-the-bound"),
    ],
)
def test_a_non_canonical_parse_is_returned_for_its_canonical_text(formalism, text, alphabet, canonical):
    expr = parse_expression(formalism, text, alphabet)
    assert expr.canonical_text == canonical
    assert parse_expression(formalism, canonical, alphabet) is expr
    assert (formalism, canonical, frozenset(alphabet) if alphabet else None) in live_keys()


def test_a_non_canonical_parse_stays_under_its_own_alphabet():
    expr = parse_expression("regex", "(0)(1)*", {"0", "1"})
    with pytest.raises(ParseError, match="outside the alphabet"):
        parse_expression("regex", "01*", {"1", "2"})
    digits = parse_expression("regex", "01*")
    assert digits == expr and digits is not expr
    assert parse_expression("regex", "01*", {"0", "1"}) is expr


def test_a_live_parse_whose_canonical_text_nests_too_deep_does_not_make_it_parse():
    # no such parse lives: the formula is refused and nothing is stored
    before = live_keys()
    for _ in range(2):
        with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels"):
            parse_expression("fol", QUANTIFIED_CHAIN)
    assert live_keys() <= before


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
    canonical = [f"(p{i} ∧ ¬p{i + 1})" if i % 2 else f"∃ x1. pred{i}(x1, c{i})" for i in range(200)]
    spaced = [f"( p{i} & ~ p{i + 1} )" if i % 2 else f"exists x1 . pred{i}( x1 , c{i} )" for i in range(200)]
    # each canonical text is looked up while another thread may be parsing
    # or looking up the same expression from its spaced text
    texts = [t for pair in zip(spaced, canonical) for t in pair]
    formalisms = ["prop" if i % 4 > 1 else "fol" for i in range(400)]
    results: list[list] = [[], [], [], []]

    def work(slot):
        for formalism, text in zip(formalisms, texts):
            results[slot].append(parse_expression(formalism, text))

    serial = [
        make_expression(f, parse_fol(t) if f == "fol" else parse_prop(t))
        for f, t in zip(formalisms, texts)
    ]
    assert [e.canonical_text for e in serial] == [t for t in canonical for _ in (0, 1)]
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
