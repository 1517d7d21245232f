"""A simplified twin is the tree its own canonical text parses to, also when
the input nests And inside And or Or inside Or, as no parse does."""

import random

import pytest

from conftest import random_fol, random_prop, random_regex
from formaltrip.syntax import make_expression, parse_expression, simplify_expression
from formaltrip.syntax.nodes import And, Not, Or, Proposition


def assert_twin_reparses(expr):
    twin = simplify_expression(expr)
    assert parse_expression(twin.formalism, twin.canonical_text).ast == twin.ast


@pytest.mark.parametrize("seed", range(3))
def test_simplified_twins_of_seeded_trees_reparse(seed):
    """Prop and FOL trees as built, so And and Or nest in their own kind;
    regex trees as parsed, since simplification keeps a Concat's shape."""
    rng = random.Random(seed)
    for _ in range(300):
        assert_twin_reparses(make_expression("prop", random_prop(rng, 5)))
        assert_twin_reparses(make_expression("fol", random_fol(rng, 4)))
        regex = make_expression("regex", random_regex(rng, 5))
        assert_twin_reparses(parse_expression("regex", regex.canonical_text))


p1, p2, p3, p4, p5 = (Proposition(f"p{i}") for i in range(1, 6))


@pytest.mark.parametrize("tree,simplified", [
    (And((p1, And((p2, And((p3, And((p4, p5)))))))), "(p1 ∧ p2 ∧ p3 ∧ p4 ∧ p5)"),
    (Or((Or((Or((Or((p1, p2)), p3)), p4)), p5)), "(p1 ∨ p2 ∨ p3 ∨ p4 ∨ p5)"),
    (And((p1, Not(Not(And((p2, Not(Not(And((p3, p4)))))))))), "(p1 ∧ p2 ∧ p3 ∧ p4)"),
    (And((p1, And((p1, And((p2, And((p1, p2)))))))), "(p1 ∧ p1 ∧ p2 ∧ p1 ∧ p2)"),
    (And((Or((p1, Or((p2, p3)))), And((p4, And((p5, Or((p1, p1)))))))), "((p1 ∨ p2 ∨ p3) ∧ p4 ∧ p5 ∧ p1)"),
])
def test_nested_and_or_is_spliced_into_its_parent(tree, simplified):
    twin = simplify_expression(make_expression("prop", tree))
    assert twin.canonical_text == simplified
    assert parse_expression("prop", simplified).ast == twin.ast
