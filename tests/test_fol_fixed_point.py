"""Canonical text of every FOL formula the pipeline derives is a fixed point
of print-then-parse: the simplified twin, the corrupting oracle's output and
the NL codec's round trip all reparse to the text they were printed as."""

import random

import pytest

from conftest import random_fol
from formaltrip.pipeline.nl_codec import describe, parse_description
from formaltrip.pipeline.providers import corrupt_expression
from formaltrip.syntax import (
    EXISTS,
    FORALL,
    And,
    Not,
    Or,
    Quantified,
    make_expression,
    parse_expression,
    simplify_expression,
)


def assert_fixed_point(text):
    assert parse_expression("fol", text).canonical_text == text


def _double_negated(node):
    return Not(Not(node))


def _derived_trees(rng):
    """Random formulas with leading and nested quantifiers, and ¬¬ both above
    a root chain and between two of its blocks. Each draw fixes its own
    predicate arities, so one draw is combined only with itself."""
    f = random_fol(rng)
    body = f.body if type(f) is Quantified else f
    yield f
    yield _double_negated(f)
    yield Quantified(FORALL, ("y",), _double_negated(Quantified(EXISTS, ("z",), body)))
    yield Quantified(EXISTS, ("y",), _double_negated(f))
    yield And((body, _double_negated(f)))
    yield Or((_double_negated(f), Quantified(FORALL, ("y",), body)))


def _expressions(seed):
    rng = random.Random(seed)
    for _ in range(40):
        for tree in _derived_trees(rng):
            yield parse_expression("fol", make_expression("fol", tree).canonical_text)


@pytest.mark.parametrize("seed", range(4))
def test_simplified_and_described_fol_text_is_a_fixed_point(seed):
    for expr in _expressions(seed):
        assert_fixed_point(expr.canonical_text)
        assert_fixed_point(simplify_expression(expr).canonical_text)
        back = parse_description(describe(expr), "fol")
        assert back.canonical_text == expr.canonical_text


@pytest.mark.parametrize("text,simplified", [
    ("∀ x. ¬¬(∃ y. pred1(x, y))", "∀ x. ∃ y. pred1(x, y)"),
    ("¬¬(∀ x. pred1(x))", "∀ x. pred1(x)"),
    ("∀ x. ¬¬(pred1(x) ∧ ¬¬(∃ y. pred2(x, y)))", "∀ x. (pred1(x) ∧ (∃ y. pred2(x, y)))"),
])
def test_simplify_joins_a_quantifier_to_the_root_chain(text, simplified):
    twin = simplify_expression(parse_expression("fol", text))
    assert twin.canonical_text == simplified
    assert_fixed_point(twin.canonical_text)


@pytest.mark.parametrize("text,corrupted", [
    ("∀ x. ∃ y. pred1(x, y)", "∀ x. ∃ y. ¬pred1(x, y)"),
    ("∀ x. ¬¬(∃ y. pred1(x, y))", "∀ x. ¬¬¬(∃ y. pred1(x, y))"),
    ("¬(∀ x. pred1(x))", "¬¬(∀ x. pred1(x))"),
    ("∀ x. (pred1(x) ∧ (∃ y. pred2(x, y)))", "∀ x. (pred1(x) ∨ (∃ y. pred2(x, y)))"),
])
def test_corrupted_fol_text_is_a_fixed_point(text, corrupted):
    out = corrupt_expression(parse_expression("fol", text), random.Random(0))
    assert out.canonical_text == corrupted
    assert_fixed_point(out.canonical_text)


@pytest.mark.xfail(strict=True, reason="a swapped operator is not merged with a parent or child of its new kind")
def test_swapped_operator_next_to_its_new_kind_is_a_fixed_point():
    out = corrupt_expression(parse_expression("fol", "∀ x. ((pred1(x) ∨ pred2(x)) ∧ pred3(x))"), random.Random(0))
    assert_fixed_point(out.canonical_text)
