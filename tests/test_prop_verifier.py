"""Propositional verifier against an independent truth-table oracle.

The oracle side re-parses printed text with a deliberately naive binary
parser and evaluates recursively, sharing no code with the verifier.
"""

import itertools
import re

import pytest
from hypothesis import given

from conftest import prop_formulas, random_prop
from formaltrip.syntax import parse_prop
from formaltrip.syntax.nodes import symbols
from formaltrip.syntax.printer import print_logic
from formaltrip.verify import MissingVariable, equivalent_prop, eval_prop
from formaltrip.verify.prop import EXHAUSTIVE_LIMIT
from formaltrip.verify.verdict import Status


# --- independent oracle ----------------------------------------------------

def naive_parse(text):
    """Binary-tree parser: no flattening, no n-ary nodes."""
    tokens = re.findall(r"p\d+|[()∧∨¬]", text)

    def parse_or(i):
        node, i = parse_and(i)
        while i < len(tokens) and tokens[i] == "∨":
            right, i = parse_and(i + 1)
            node = ("or", node, right)
        return node, i

    def parse_and(i):
        node, i = parse_not(i)
        while i < len(tokens) and tokens[i] == "∧":
            right, i = parse_not(i + 1)
            node = ("and", node, right)
        return node, i

    def parse_not(i):
        if tokens[i] == "¬":
            child, i = parse_not(i + 1)
            return ("not", child), i
        if tokens[i] == "(":
            node, i = parse_or(i + 1)
            assert tokens[i] == ")"
            return node, i + 1
        return ("var", tokens[i]), i + 1

    node, i = parse_or(0)
    assert i == len(tokens)
    return node


def naive_eval(node, assignment):
    tag = node[0]
    if tag == "var":
        return assignment[node[1]]
    if tag == "not":
        return not naive_eval(node[1], assignment)
    if tag == "and":
        return naive_eval(node[1], assignment) and naive_eval(node[2], assignment)
    return naive_eval(node[1], assignment) or naive_eval(node[2], assignment)


def naive_vars(node, out):
    if node[0] == "var":
        out.add(node[1])
    elif node[0] == "not":
        naive_vars(node[1], out)
    else:
        naive_vars(node[1], out)
        naive_vars(node[2], out)
    return out


def truth_table_equivalent(text_f, text_g) -> bool:
    nf, ng = naive_parse(text_f), naive_parse(text_g)
    names = sorted(naive_vars(nf, set()) | naive_vars(ng, set()))
    for values in itertools.product((False, True), repeat=len(names)):
        a = dict(zip(names, values))
        if naive_eval(nf, a) != naive_eval(ng, a):
            return False
    return True


# --- eval ------------------------------------------------------------------

def test_eval_examples():
    a = {"p1": True}
    assert eval_prop(parse_prop("p1 ∧ p1"), a) is True
    b = {"p11": True, "p8": False}
    assert eval_prop(parse_prop("¬(p11 ∧ p8)"), b) is True
    assert eval_prop(parse_prop("¬p11 ∧ ¬p8"), b) is False


def test_eval_missing_variable():
    with pytest.raises(MissingVariable):
        eval_prop(parse_prop("p1 ∧ p2"), {"p1": True})


# --- equivalence -----------------------------------------------------------

def test_de_morgan():
    v = equivalent_prop(parse_prop("¬(p1 ∧ p2)"), parse_prop("¬p1 ∨ ¬p2"))
    assert v.status is Status.EQUIVALENT


def test_idempotent_conjunction():
    v = equivalent_prop(parse_prop("p1 ∧ p1"), parse_prop("p1"))
    assert v.status is Status.EQUIVALENT


def test_negation_placement_differs():
    f, g = parse_prop("¬p11 ∧ ¬p8"), parse_prop("¬(p11 ∧ p8)")
    v = equivalent_prop(f, g)
    assert v.status is Status.NOT_EQUIVALENT
    assert eval_prop(f, v.witness) != eval_prop(g, v.witness)


def test_variable_union_semantics():
    # a fresh tautological conjunct must not change the verdict
    f = parse_prop("p1 ∨ ¬p2")
    g = parse_prop("(p1 ∨ ¬p2) ∧ (p9 ∨ ¬p9)")
    assert equivalent_prop(f, g).status is Status.EQUIVALENT


def test_renamed_proposition_is_not_equivalent():
    v = equivalent_prop(parse_prop("¬p2 ∧ p5"), parse_prop("¬p ∧ q"))
    assert v.status is Status.NOT_EQUIVALENT


def test_oracle_agreement_thousand_pairs(rng):
    mismatches = 0
    for _ in range(1000):
        f, g = random_prop(rng), random_prop(rng)
        expected = truth_table_equivalent(print_logic(f), print_logic(g))
        got = equivalent_prop(f, g).status is Status.EQUIVALENT
        if expected != got:
            mismatches += 1
    assert mismatches == 0


def test_witness_validity(rng):
    for _ in range(300):
        f, g = random_prop(rng), random_prop(rng)
        v = equivalent_prop(f, g)
        if v.status is Status.NOT_EQUIVALENT:
            assert eval_prop(f, v.witness) != eval_prop(g, v.witness)


def test_equivalence_relation_properties(rng):
    formulas = [random_prop(rng, max_depth=3) for _ in range(12)]
    for f in formulas:
        assert equivalent_prop(f, f).status is Status.EQUIVALENT
    for f, g in itertools.combinations(formulas, 2):
        assert (
            equivalent_prop(f, g).status is Status.EQUIVALENT
        ) == (equivalent_prop(g, f).status is Status.EQUIVALENT)
    eq_pairs = [
        (f, g)
        for f, g in itertools.permutations(formulas, 2)
        if equivalent_prop(f, g).status is Status.EQUIVALENT
    ]
    for f, g in eq_pairs:
        for h in formulas:
            if equivalent_prop(g, h).status is Status.EQUIVALENT:
                assert equivalent_prop(f, h).status is Status.EQUIVALENT


def test_search_path_beyond_exhaustive_limit():
    # 21 distinct variables forces the backtracking branch
    big_f = parse_prop(" ∧ ".join(f"p{i}" for i in range(1, 22)))
    big_g = parse_prop(" ∧ ".join(f"p{i}" for i in range(21, 0, -1)))
    assert equivalent_prop(big_f, big_g).status is Status.EQUIVALENT
    other = parse_prop(" ∧ ".join(f"p{i}" for i in range(1, 21)) + " ∧ ¬p21")
    v = equivalent_prop(big_f, other)
    assert v.status is Status.NOT_EQUIVALENT
    assert eval_prop(big_f, v.witness) != eval_prop(other, v.witness)


def test_table_at_exactly_the_exhaustive_limit():
    # 20 variables is the largest table; the all-true row is its last
    names = [f"p{i}" for i in range(1, EXHAUSTIVE_LIMIT + 1)]
    conj = parse_prop(" ∧ ".join(names))
    assert len(symbols(conj).propositions) == EXHAUSTIVE_LIMIT
    reversed_conj = parse_prop(" ∧ ".join(reversed(names)))
    v = equivalent_prop(conj, reversed_conj)
    assert v.status is Status.EQUIVALENT and v.witness is None
    contradiction = parse_prop(" ∧ ".join(names) + " ∧ ¬p1")
    v = equivalent_prop(conj, contradiction)
    assert v.status is Status.NOT_EQUIVALENT
    assert list(v.witness.items()) == [(name, True) for name in sorted(names)]
    assert eval_prop(conj, v.witness) and not eval_prop(contradiction, v.witness)


@given(prop_formulas)
def test_flattening_preserves_truth_table(ast):
    flattened = parse_prop(print_logic(ast))
    naive = naive_parse(print_logic(ast))
    names = sorted(symbols(flattened).propositions)
    for values in itertools.product((False, True), repeat=min(len(names), 6)):
        a = dict(zip(names, values))
        for name in names:
            a.setdefault(name, False)
        assert eval_prop(flattened, a) == naive_eval(naive, a)
