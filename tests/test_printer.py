import random

import pytest
from hypothesis import given

from conftest import prop_formulas, random_fol, random_regex, regex_asts
from formaltrip.syntax import (
    Literal,
    ParseError,
    Star,
    make_expression,
    parse_fol,
    parse_prop,
    parse_regex,
)
from formaltrip.syntax.nodes import MAX_NESTING, TOO_DEEP
from formaltrip.syntax.printer import print_fol, print_logic, print_regex


def test_clause_prints_flat():
    assert print_logic(parse_prop("(p5 ∨ ¬p12 ∨ ¬p4)")) == "(p5 ∨ ¬p12 ∨ ¬p4)"


def test_starred_group_gets_parens():
    assert print_regex(parse_regex("(01)*")) == "(01)*"


def test_a_star_chain_nested_past_the_bound_is_refused():
    chain = Literal("0")
    for _ in range(MAX_NESTING):
        chain = Star(chain)
    assert print_regex(chain) == "0" + "*" * MAX_NESTING
    with pytest.raises(ParseError, match=TOO_DEEP):
        print_regex(Star(chain))


def test_quantifier_prefix_layout():
    assert print_fol(parse_fol("∀x1 pred3(p5,x1)")) == "∀ x1. pred3(p5, x1)"


def test_canonical_strips_redundant_parens():
    assert make_expression("prop", parse_prop("((p1 ∧ p2))")).canonical_text == "(p1 ∧ p2)"


@given(prop_formulas)
def test_prop_print_parse_fixed_point(ast):
    first = parse_prop(print_logic(ast))
    assert parse_prop(print_logic(first)) == first


@given(regex_asts)
def test_regex_print_parse_fixed_point(ast):
    first = parse_regex(print_regex(ast))
    assert parse_regex(print_regex(first)) == first


def test_fol_print_parse_fixed_point_bulk():
    rng = random.Random(42)
    for _ in range(300):
        f = random_fol(rng)
        first = parse_fol(print_fol(f))
        assert parse_fol(print_fol(first)) == first


def test_generator_scale_fixed_point():
    # canonical text reparses to an identical tree across formalism builders
    rng = random.Random(7)
    from conftest import random_prop

    for _ in range(500):
        ast = random_prop(rng)
        first = parse_prop(print_logic(ast))
        assert parse_prop(print_logic(first)) == first
    for _ in range(500):
        ast = random_regex(rng)
        first = parse_regex(print_regex(ast))
        assert parse_regex(print_regex(first)) == first


def test_fixed_point_at_generator_scale():
    # 10,000 generator-produced expressions per formalism reparse identically
    import itertools

    from formaltrip.grammar import (
        BUILTIN_GRAMMARS,
        GenerationConfig,
        VocabularyConfig,
        grow_tree,
        instantiate,
        realize_vocabulary,
    )
    from formaltrip.syntax import parse_expression

    plans = {
        "prop": ("prop", {}, "operator_total"),
        "fol": ("fol", {}, "operator_total"),
        "regex": ("regex", {}, "cfg_depth"),
    }
    for formalism, (grammar_id, vocab_kwargs, _) in plans.items():
        grammar = BUILTIN_GRAMMARS[grammar_id]
        vocab = VocabularyConfig(**vocab_kwargs)
        produced = 0
        for seed in itertools.count():
            rng = random.Random(seed)
            realized = realize_vocabulary(vocab, rng)
            leaves = []
            grow_tree(
                grammar,
                GenerationConfig(depth=10, branching=80, sample_count=1, seed=seed),
                rng,
                on_leaf=leaves.append,
            )
            for leaf in leaves:
                expr = instantiate(leaf, realized, vocab, rng, formalism)
                alphabet = set(realized.alphabet) if formalism == "regex" else None
                reparsed = parse_expression(formalism, expr.canonical_text, alphabet)
                assert reparsed.ast == expr.ast
                assert reparsed.canonical_text == expr.canonical_text
                produced += 1
                if produced >= 10_000:
                    break
            if produced >= 10_000:
                break
