import pytest

from formaltrip.syntax import (
    EXISTS,
    FORALL,
    And,
    ArityError,
    Atom,
    Constant,
    Not,
    ParseError,
    Quantified,
    Variable,
    parse_fol,
)


def test_prefix_quantifier_with_period():
    f = parse_fol("∀ x1. pred3(p5, x1)")
    assert f == Quantified(FORALL, ("x1",), Atom("pred3", (Constant("p5"), Variable("x1"))))


def test_prefix_quantifier_without_period():
    f = parse_fol("∀x1 pred3(p5, x1)")
    assert f == Quantified(FORALL, ("x1",), Atom("pred3", (Constant("p5"), Variable("x1"))))


def test_ground_atom_has_constants():
    f = parse_fol("pred2(p3,p5)")
    assert f == Atom("pred2", (Constant("p3"), Constant("p5")))


def test_unused_bound_variable_is_legal():
    f = parse_fol("∃ x1. ¬pred2(p4)")
    assert f == Quantified(EXISTS, ("x1",), Not(Atom("pred2", (Constant("p4"),))))


def test_quantified_constant_name_becomes_variable():
    f = parse_fol("∃ p7. ¬pred5(p7)")
    assert f == Quantified(EXISTS, ("p7",), Not(Atom("pred5", (Variable("p7"),))))


def test_multi_variable_group():
    f = parse_fol("∀ x1 x2. pred1(x1, x2)")
    assert f == Quantified(FORALL, ("x1", "x2"), Atom("pred1", (Variable("x1"), Variable("x2"))))


def test_nested_quantifier_stays_in_place():
    f = parse_fol("pred1(p1) ∧ ∃ x1. pred2(x1)")
    assert f == And((
        Atom("pred1", (Constant("p1"),)),
        Quantified(EXISTS, ("x1",), Atom("pred2", (Variable("x1"),))),
    ))


def test_negated_quantifier():
    f = parse_fol("¬∀x. pred1(x)")
    assert isinstance(f, Not)
    assert isinstance(f.child, Quantified)


def test_scope_is_lexical():
    f = parse_fol("(∀ x1. pred1(x1)) ∧ pred2(x1)")
    left, right = f.children
    assert left.body == Atom("pred1", (Variable("x1"),))
    # the second x1 is outside the quantifier's parentheses
    assert right == Atom("pred2", (Constant("x1"),))


def test_word_aliases():
    f = parse_fol("all x1. pred1(x1)")
    assert (f.kind, f.variables) == (FORALL, ("x1",))
    g = parse_fol("exists x4. pred1(x4)")
    assert (g.kind, g.variables) == (EXISTS, ("x4",))


def test_inconsistent_arity_rejected():
    with pytest.raises(ArityError) as excinfo:
        parse_fol("pred1(p1) ∧ pred1(p1, p2)")
    assert excinfo.value.predicate == "pred1"
    assert {excinfo.value.seen, excinfo.value.expected} == {1, 2}


@pytest.mark.parametrize(
    "text",
    ["∀. pred1(p1)", "pred1(p1", "pred1()", "x1 = x2", "pred1(p1) ≠ pred2(p2)"],
)
def test_rejected_inputs(text):
    with pytest.raises(ParseError):
        parse_fol(text)
