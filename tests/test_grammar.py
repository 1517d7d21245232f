import random

import pytest

from formaltrip.grammar import (
    BUILTIN_GRAMMARS,
    FOL,
    KSAT3,
    PROP,
    REGEX,
    GenerationConfig,
    GrammarSpec,
    EmptyFrontier,
    grow_tree,
    load_grammar,
    recognize,
)
from formaltrip.grammar.derive import _combos


def test_builtin_rule_sets():
    assert [r for r in KSAT3.rules] == [
        ("S", ("S", "∧", "S")),
        ("S", ("(", "P", "∨", "P", "∨", "P", ")")),
        ("P", ("¬", "v")),
        ("P", ("v",)),
    ]
    assert PROP.rules == (
        ("S", ("(", "S", "∧", "S", ")")),
        ("S", ("(", "S", "∨", "S", ")")),
        ("S", ("(", "¬", "S", ")")),
        ("S", ("¬", "v")),
        ("S", ("v",)),
    )
    assert ("K", ()) in REGEX.rules  # the epsilon alternative
    assert FOL.start == "S"
    assert {"∀", "∃", "f", ".", "p"} <= FOL.terminals


def test_grammar_file_loading(tmp_path):
    text = "A -> a A | b\n# comment\n"
    g = load_grammar(text, "toy")
    assert g.start == "A"
    assert g.rules == (("A", ("a", "A")), ("A", ("b",)))
    assert recognize(g, ["a", "a", "b"])
    assert not recognize(g, ["b", "a"])


def test_grammar_validation():
    with pytest.raises(ValueError):
        GrammarSpec.build("bad", "S", [("X", ("a",))])


# --- growth ------------------------------------------------------------------

def cfg(depth, branching=50, seed=7):
    return GenerationConfig(depth=depth, branching=branching, sample_count=1, seed=seed)


def test_ksat3_depth2_only_single_clauses():
    for seed in (0, 1, 2):
        leaves = []
        grow_tree(KSAT3, cfg(2, seed=seed), random.Random(seed), on_leaf=leaves.append)
        assert leaves
        for leaf in leaves:
            assert "∧" not in leaf.sentential_form
            assert leaf.sentential_form[0] == "(" and leaf.sentential_form[-1] == ")"


def test_ksat3_two_clauses_need_depth_3():
    leaves = []
    grow_tree(KSAT3, cfg(3, branching=100), random.Random(1), on_leaf=leaves.append)
    assert any("∧" in leaf.sentential_form for leaf in leaves)


def test_regex_depth2_single_symbol_leaves():
    leaves = []
    grow_tree(REGEX, cfg(2), random.Random(3), on_leaf=leaves.append)
    assert {leaf.text for leaf in leaves} <= {"Σ", "Σ *"}
    assert {leaf.text for leaf in leaves} == {"Σ", "Σ *"}


def test_identical_seeds_identical_leaf_multisets():
    a, b = [], []
    grow_tree(PROP, cfg(6), random.Random(11), on_leaf=a.append)
    grow_tree(PROP, cfg(6), random.Random(11), on_leaf=b.append)
    assert [x.text for x in a] == [x.text for x in b]


def test_depth_one_prop_terminates():
    leaves = []
    grow_tree(PROP, cfg(1), random.Random(0), on_leaf=leaves.append)
    assert {leaf.text for leaf in leaves} == {"v", "¬ v"}


def test_empty_frontier_raises():
    loop = GrammarSpec.build("loop", "S", [("S", ("a", "S"))])
    with pytest.raises(EmptyFrontier):
        grow_tree(loop, cfg(4), random.Random(0), on_leaf=lambda leaf: None)


def test_sampled_combos_draw_as_rng_choice_does():
    # every golden dataset hash rests on this stream, so a Python whose
    # Random.choice draws differently should fail here first, by name
    for size in range(1, 301):
        choices = [list(range(size)), list(range(7)), list(range(size))]
        ours, theirs = random.Random(size), random.Random(size)
        got = _combos(choices, 5, ours)
        expected = [tuple(theirs.choice(opts) for opts in choices) for _ in range(5)]
        assert got == expected, (
            f"_combos no longer draws as random.Random.choice for a list of {size}; "
            "it must follow choice's getrandbits draws, or every golden hash moves"
        )
        assert ours.getstate() == theirs.getstate(), f"generator state differs after lists of {size}"


# --- recognition ---------------------------------------------------------------

def test_sentential_form_with_nonterminals():
    assert recognize(KSAT3, "( P ∨ P ∨ P ) ∧ ( P ∨ P ∨ P )")


def test_underivable_fragment():
    assert not recognize(PROP, "∨ p1")


def test_all_grown_leaves_recognized():
    for name, grammar in BUILTIN_GRAMMARS.items():
        leaves = []
        grow_tree(grammar, cfg(5, branching=20), random.Random(9), on_leaf=leaves.append)
        for leaf in leaves[:100]:
            assert recognize(grammar, list(leaf.sentential_form)), (name, leaf.text)


def test_instantiated_text_deinstantiates():
    assert recognize(KSAT3, "( p5 ∨ ¬ p12 ∨ ¬ p4 )")
    assert recognize(REGEX, "0 1 *")
    assert recognize(FOL, "( ∀ x1 . pred3 ( p5 , x1 ) )")


def _custom_copy(grammar):
    text = "\n".join(f"{lhs} -> {' '.join(rhs) or 'ε'}" for lhs, rhs in grammar.rules)
    return load_grammar(text, f"custom_{grammar.id}")


@pytest.mark.parametrize(
    "grammar,text",
    [
        (KSAT3, "( p5 ∨ ¬ p12 ∨ ¬ p4 )"),
        (PROP, "( p1 ∨ ¬ p2 )"),
        (REGEX, "0 1 *"),
        (FOL, "( ∀ x1 . pred3 ( p5 , x1 ) )"),
    ],
    ids=["ksat3", "prop", "regex", "fol"],
)
def test_custom_grammar_recognizes_instantiated_text(grammar, text):
    custom = _custom_copy(grammar)
    assert custom.rules == grammar.rules and custom.id not in BUILTIN_GRAMMARS
    assert recognize(custom, text)
    assert not recognize(custom, text + " )")
