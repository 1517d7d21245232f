"""Pinned outputs of everything that walks an expression's tree.

Each row fixes, for one input, the operator counts, the interpret prompt's
vocabulary block, the symbol sets of the verifiers, the free variables of a
first-order formula, the simplified twin and the
corrupting oracle's output for five seeds. The vocabulary block and the
choice of corrupted operator depend on the order in which nodes are
visited, so the table also pins that order. The values were recorded
before the walkers were unified and must not change with their internals.
"""

import random

import pytest

from conftest import random_fol, random_prop, random_regex
from formaltrip.grammar.dataset import expression_metric_value
from formaltrip.pipeline.providers import corrupt_expression
from formaltrip.pipeline.templates import vocabulary_block
from formaltrip.syntax import (
    EXISTS,
    FORALL,
    And,
    ArityError,
    Atom,
    Constant,
    Not,
    Or,
    Quantified,
    Variable,
    make_expression,
    parse_expression,
    parse_fol,
    simplify_expression,
)
from formaltrip.syntax.nodes import Literal, Proposition, children, symbols
from formaltrip.verify.fol import free_variables

# The parser makes every term outside a quantifier's scope a constant, so
# formulas with free variables are built directly.
STRAY_FREE = And((
    Atom("P", (Variable("y"),)),
    Quantified(FORALL, ("x",), Or((
        Atom("Q", (Variable("x"), Variable("y"), Constant("c"))),
        Atom("R", (Variable("z"),)),
    ))),
))
STRAY_UNDER_PREFIX = Quantified(
    EXISTS, ("x",),
    Not(Not(Atom("Q", (Variable("x"), Variable("w"), Variable("x"))))),
)

# (formalism, source text or AST, expected outputs)
CASES = [
    ('prop', 'p1 ∧ ¬¬p2 ∨ p1', {
        'text': '((p1 ∧ ¬¬p2) ∨ p1)',
        'complexity': (4, 1, 1, 2),
        'vocabulary': 'The propositions are: p1, p2',
        'symbols': ['p1', 'p2'],
        'simplified': '((p1 ∧ p2) ∨ p1)',
        'corrupted': [
            '((p1 ∨ ¬¬p2) ∨ p1)',
            '((p1 ∧ ¬¬p2) ∧ p1)',
            '((p1 ∧ ¬¬p2) ∧ p1)',
            '((p1 ∧ ¬¬p2) ∧ p1)',
            '((p1 ∧ ¬¬p2) ∧ p1)',
        ],
    }),
    ('prop', '(p3 ∧ p1) ∧ (p3 ∧ p1) ∧ ¬p2', {
        'text': '(p3 ∧ p1 ∧ p3 ∧ p1 ∧ ¬p2)',
        'complexity': (5, 4, 0, 1),
        'vocabulary': 'The propositions are: p3, p1, p2',
        'symbols': ['p1', 'p2', 'p3'],
        'simplified': '(p3 ∧ p1 ∧ ¬p2)',
        'corrupted': [
            '(p3 ∨ p1 ∨ p3 ∨ p1 ∨ ¬p2)',
            '(p3 ∨ p1 ∨ p3 ∨ p1 ∨ ¬p2)',
            '(p3 ∨ p1 ∨ p3 ∨ p1 ∨ ¬p2)',
            '(p3 ∨ p1 ∨ p3 ∨ p1 ∨ ¬p2)',
            '(p3 ∨ p1 ∨ p3 ∨ p1 ∨ ¬p2)',
        ],
    }),
    ('prop', '(p1 ∨ p2) ∨ ¬(p2 ∨ p1 ∨ p2) ∧ ¬¬¬p3', {
        'text': '(p1 ∨ p2 ∨ (¬(p2 ∨ p1 ∨ p2) ∧ ¬¬¬p3))',
        'complexity': (9, 1, 4, 4),
        'vocabulary': 'The propositions are: p1, p2, p3',
        'symbols': ['p1', 'p2', 'p3'],
        'simplified': '(p1 ∨ p2 ∨ (¬(p2 ∨ p1) ∧ ¬p3))',
        'corrupted': [
            '(p1 ∨ p2 ∨ (¬(p2 ∨ p1 ∨ p2) ∨ ¬¬¬p3))',
            '(p1 ∧ p2 ∧ (¬(p2 ∨ p1 ∨ p2) ∧ ¬¬¬p3))',
            '(p1 ∧ p2 ∧ (¬(p2 ∨ p1 ∨ p2) ∧ ¬¬¬p3))',
            '(p1 ∧ p2 ∧ (¬(p2 ∨ p1 ∨ p2) ∧ ¬¬¬p3))',
            '(p1 ∧ p2 ∧ (¬(p2 ∨ p1 ∨ p2) ∧ ¬¬¬p3))',
        ],
    }),
    ('prop', 'p4', {
        'text': 'p4',
        'complexity': (0, 0, 0, 0),
        'vocabulary': 'The propositions are: p4',
        'symbols': ['p4'],
        'simplified': 'p4',
        'corrupted': [
            '¬p4',
            '¬p4',
            '¬p4',
            '¬p4',
            '¬p4',
        ],
    }),
    ('prop', '((p1 ∧ p2) ∨ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ p1 ∧ p2)', {
        'text': '(((p1 ∧ p2) ∨ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ (p1 ∧ p2)))',
        'complexity': (8, 4, 3, 1),
        'vocabulary': 'The propositions are: p1, p2, p3, p4, p5, p6',
        'symbols': ['p1', 'p2', 'p3', 'p4', 'p5', 'p6'],
        'simplified': '(((p1 ∧ p2) ∨ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ (p1 ∧ p2)))',
        'corrupted': [
            '(((p1 ∧ p2) ∨ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ (p1 ∨ p2)))',
            '(((p1 ∧ p2) ∧ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ (p1 ∧ p2)))',
            '(((p1 ∧ p2) ∨ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ (p1 ∨ p2)))',
            '(((p1 ∧ p2) ∧ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ (p1 ∧ p2)))',
            '(((p1 ∧ p2) ∧ (p3 ∧ ¬(p4 ∨ p5))) ∧ (p6 ∨ (p1 ∧ p2)))',
        ],
    }),
    ('fol', 'P(x) ∧ ∀ x. Q(x, c)', {
        'text': '(P(x) ∧ (∀ x. Q(x, c)))',
        'complexity': (1, 1, 0, 0),
        'vocabulary': 'The objects are: x, c\nThe parameterized predicates are: P(?p0), Q(?p0,?p1)\nThe free variables are: x',
        'symbols': (['c', 'x'], [('P', 1), ('Q', 2)]),
        'free': [],
        'simplified': '(P(x) ∧ (∀ x. Q(x, c)))',
        'corrupted': [
            '(P(x) ∨ (∀ x. Q(x, c)))',
            '(P(x) ∨ (∀ x. Q(x, c)))',
            '(P(x) ∨ (∀ x. Q(x, c)))',
            '(P(x) ∨ (∀ x. Q(x, c)))',
            '(P(x) ∨ (∀ x. Q(x, c)))',
        ],
    }),
    ('fol', '∀x. (P(x) ∧ ∃x. (Q(x, c) ∨ ¬¬R(x)))', {
        'text': '∀ x. (P(x) ∧ (∃ x. (Q(x, c) ∨ ¬¬R(x))))',
        'complexity': (4, 1, 1, 2),
        'vocabulary': 'The objects are: c\nThe parameterized predicates are: P(?p0), Q(?p0,?p1), R(?p0)\nThe free variables are: x',
        'symbols': (['c'], [('P', 1), ('Q', 2), ('R', 1)]),
        'free': [],
        'simplified': '∀ x. (P(x) ∧ (∃ x. (Q(x, c) ∨ R(x))))',
        'corrupted': [
            '∀ x. (P(x) ∧ (∃ x. (Q(x, c) ∧ ¬¬R(x))))',
            '∀ x. (P(x) ∨ (∃ x. (Q(x, c) ∨ ¬¬R(x))))',
            '∀ x. (P(x) ∨ (∃ x. (Q(x, c) ∨ ¬¬R(x))))',
            '∀ x. (P(x) ∨ (∃ x. (Q(x, c) ∨ ¬¬R(x))))',
            '∀ x. (P(x) ∨ (∃ x. (Q(x, c) ∨ ¬¬R(x))))',
        ],
    }),
    ('fol', '∀x1. (pred1(x1) ∨ ∃x2. (pred2(x1, x2) ∧ (pred1(x2) ∨ ¬pred3(x2, x1, c1)))) ∧ (pred1(c2) ∨ pred1(c1))', {
        'text': '∀ x1. ((pred1(x1) ∨ (∃ x2. (pred2(x1, x2) ∧ (pred1(x2) ∨ ¬pred3(x2, x1, c1))))) ∧ (pred1(c2) ∨ pred1(c1)))',
        'complexity': (6, 2, 3, 1),
        'vocabulary': 'The objects are: c1, c2\nThe parameterized predicates are: pred1(?p0), pred2(?p0,?p1), pred3(?p0,?p1,?p2)\nThe free variables are: x1, x2',
        'symbols': (['c1', 'c2'], [('pred1', 1), ('pred2', 2), ('pred3', 3)]),
        'free': [],
        'simplified': '∀ x1. ((pred1(x1) ∨ (∃ x2. (pred2(x1, x2) ∧ (pred1(x2) ∨ ¬pred3(x2, x1, c1))))) ∧ (pred1(c2) ∨ pred1(c1)))',
        'corrupted': [
            '∀ x1. ((pred1(x1) ∨ (∃ x2. (pred2(x1, x2) ∧ (pred1(x2) ∧ ¬pred3(x2, x1, c1))))) ∧ (pred1(c2) ∨ pred1(c1)))',
            '∀ x1. ((pred1(x1) ∧ (∃ x2. (pred2(x1, x2) ∧ (pred1(x2) ∨ ¬pred3(x2, x1, c1))))) ∧ (pred1(c2) ∨ pred1(c1)))',
            '∀ x1. ((pred1(x1) ∨ (∃ x2. (pred2(x1, x2) ∧ (pred1(x2) ∨ ¬pred3(x2, x1, c1))))) ∨ (pred1(c2) ∨ pred1(c1)))',
            '∀ x1. ((pred1(x1) ∧ (∃ x2. (pred2(x1, x2) ∧ (pred1(x2) ∨ ¬pred3(x2, x1, c1))))) ∧ (pred1(c2) ∨ pred1(c1)))',
            '∀ x1. ((pred1(x1) ∧ (∃ x2. (pred2(x1, x2) ∧ (pred1(x2) ∨ ¬pred3(x2, x1, c1))))) ∧ (pred1(c2) ∨ pred1(c1)))',
        ],
    }),
    ('fol', '∀x1. (pred1(x1) ∧ pred1(x1) ∧ ¬¬pred2(x1, c1))', {
        'text': '∀ x1. (pred1(x1) ∧ pred1(x1) ∧ ¬¬pred2(x1, c1))',
        'complexity': (4, 2, 0, 2),
        'vocabulary': 'The objects are: c1\nThe parameterized predicates are: pred1(?p0), pred2(?p0,?p1)\nThe free variables are: x1',
        'symbols': (['c1'], [('pred1', 1), ('pred2', 2)]),
        'free': [],
        'simplified': '∀ x1. (pred1(x1) ∧ pred2(x1, c1))',
        'corrupted': [
            '∀ x1. (pred1(x1) ∨ pred1(x1) ∨ ¬¬pred2(x1, c1))',
            '∀ x1. (pred1(x1) ∨ pred1(x1) ∨ ¬¬pred2(x1, c1))',
            '∀ x1. (pred1(x1) ∨ pred1(x1) ∨ ¬¬pred2(x1, c1))',
            '∀ x1. (pred1(x1) ∨ pred1(x1) ∨ ¬¬pred2(x1, c1))',
            '∀ x1. (pred1(x1) ∨ pred1(x1) ∨ ¬¬pred2(x1, c1))',
        ],
    }),
    ('fol', STRAY_FREE, {
        'text': '(P(y) ∧ (∀ x. (Q(x, y, c) ∨ R(z))))',
        'complexity': (2, 1, 1, 0),
        'vocabulary': 'The objects are: c\nThe parameterized predicates are: P(?p0), Q(?p0,?p1,?p2), R(?p0)\nThe free variables are: y, x, z',
        'symbols': (['c'], [('P', 1), ('Q', 3), ('R', 1)]),
        'free': ['y', 'z'],
        'simplified': '(P(y) ∧ (∀ x. (Q(x, y, c) ∨ R(z))))',
        'corrupted': [
            '(P(y) ∧ (∀ x. (Q(x, y, c) ∧ R(z))))',
            '(P(y) ∨ (∀ x. (Q(x, y, c) ∨ R(z))))',
            '(P(y) ∨ (∀ x. (Q(x, y, c) ∨ R(z))))',
            '(P(y) ∨ (∀ x. (Q(x, y, c) ∨ R(z))))',
            '(P(y) ∨ (∀ x. (Q(x, y, c) ∨ R(z))))',
        ],
    }),
    ('fol', STRAY_UNDER_PREFIX, {
        'text': '∃ x. ¬¬Q(x, w, x)',
        'complexity': (2, 0, 0, 2),
        'vocabulary': 'The parameterized predicates are: Q(?p0,?p1,?p2)\nThe free variables are: x, w',
        'symbols': ([], [('Q', 3)]),
        'free': ['w'],
        'simplified': '∃ x. Q(x, w, x)',
        'corrupted': [
            '∃ x. ¬¬¬Q(x, w, x)',
            '∃ x. ¬¬¬Q(x, w, x)',
            '∃ x. ¬¬¬Q(x, w, x)',
            '∃ x. ¬¬¬Q(x, w, x)',
            '∃ x. ¬¬¬Q(x, w, x)',
        ],
    }),
    ('regex', '(0*)*1', {
        'text': '0**1',
        'complexity': (2, 0, 0, 0),
        'vocabulary': '',
        'symbols': ['0', '1'],
        'simplified': '0*1',
        'corrupted': [
            '0*1',
            '0*1',
            '0*1',
            '0*1',
            '0*1',
        ],
    }),
    ('regex', '012', {
        'text': '012',
        'complexity': (0, 0, 0, 0),
        'vocabulary': '',
        'symbols': ['0', '1', '2'],
        'simplified': '012',
        'corrupted': [
            '(012)*',
            '(012)*',
            '(012)*',
            '(012)*',
            '(012)*',
        ],
    }),
    ('regex', '(0(1*)*2)*3*0', {
        'text': '(01**2)*3*0',
        'complexity': (4, 0, 0, 0),
        'vocabulary': '',
        'symbols': ['0', '1', '2', '3'],
        'simplified': '(01*2)*3*0',
        'corrupted': [
            '(01**2)*30',
            '(01*2)*3*0',
            '01**23*0',
            '(01*2)*3*0',
            '(01*2)*3*0',
        ],
    }),

]


def _expression(formalism, source):
    if isinstance(source, str):
        return parse_expression(formalism, source)
    return make_expression(formalism, source)


@pytest.mark.parametrize("formalism,source,expected", CASES)
def test_walker_outputs(formalism, source, expected):
    expr = _expression(formalism, source)
    assert expr.canonical_text == expected["text"]
    metrics = ("operator_total", "and_count", "or_count", "not_count")
    counts = tuple(expression_metric_value(expr, m, None, None) for m in metrics)
    assert counts == expected["complexity"]
    assert vocabulary_block(expr) == expected["vocabulary"]
    found = symbols(expr.ast)
    if formalism == "prop":
        assert sorted(found.propositions) == expected["symbols"]
    elif formalism == "regex":
        assert sorted(found.regex) == expected["symbols"]
    else:
        assert (sorted(found.objects), sorted(found.predicates)) == expected["symbols"]
        assert free_variables(expr.ast) == expected["free"]
    assert simplify_expression(expr).canonical_text == expected["simplified"]
    corrupted = [corrupt_expression(expr, random.Random(seed)).canonical_text for seed in range(5)]
    assert corrupted == expected["corrupted"]


def test_arity_clash_inside_nested_quantifier():
    with pytest.raises(ArityError) as info:
        parse_fol("∀x. (P(x) ∧ ∃y. (Q(y) ∨ ¬P(x, y)))")
    assert str(info.value) == "predicate 'P' used with arity 2, expected 1"
    assert info.value.position == 0
    assert (info.value.predicate, info.value.seen, info.value.expected) == ("P", 2, 1)


def collected(node, found=None) -> dict:
    """Leaf names by kind, each once in order of first occurrence, by plain
    recursion: a node before its children, a quantifier's names before its
    body, an atom's predicate before its terms."""
    if found is None:
        found = {"propositions": [], "objects": [], "variables": [], "predicates": [], "regex": []}

    def add(kind, name):
        if name not in found[kind]:
            found[kind].append(name)

    if isinstance(node, Proposition):
        add("propositions", node.name)
    elif isinstance(node, Literal):
        add("regex", node.symbol)
    elif isinstance(node, Atom):
        add("predicates", (node.predicate, len(node.terms)))
        for term in node.terms:
            add("objects" if isinstance(term, Constant) else "variables", term.name)
    elif isinstance(node, Quantified):
        for name in node.variables:
            add("variables", name)
    for child in children(node):
        collected(child, found)
    return found


MIXED_ARITY = Or((Atom("pred1", (Constant("a"),)), Atom("pred1", (Constant("a"), Constant("b")))))


def test_symbols_agree_with_a_recursive_collector():
    rng = random.Random(31)
    trees = [STRAY_FREE, STRAY_UNDER_PREFIX, MIXED_ARITY]
    for _ in range(300):
        trees += [random_prop(rng, 5, 8), random_fol(rng, 4, 3, 3), random_regex(rng, 5, ("0", "1", "2"))]
    for tree in trees:
        assert symbols(tree)._asdict() == collected(tree), tree
    assert symbols(MIXED_ARITY).predicates == [("pred1", 1), ("pred1", 2)]
