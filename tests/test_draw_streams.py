"""The walk and the placeholder draws against plain reference copies.

`grow_tree` carries each sentential form's nonterminal positions from level
to level, and `instantiate` draws placeholders with a `getrandbits` loop
instead of `random.Random.choice`. Every golden dataset hash rests on both
streams, so each is checked here against a reference written the plain way:
a walk that rescans every form for its nonterminals and draws with
`rng.choice`, and an instantiation that draws every placeholder with
`rng.choice`. Both must give the same output and leave the generator in the
same state.
"""

import itertools
import math
import random

import pytest

from formaltrip.grammar import (
    BUILTIN_GRAMMARS,
    ENGLISH,
    GenerationConfig,
    VocabularyConfig,
    grow_tree,
    instantiate,
    load_grammar,
    realize_vocabulary,
)
from formaltrip.grammar import derive
from formaltrip.grammar.cfg import GRAMMAR_FORMALISM
from formaltrip.syntax import parse_expression

# ε alternatives, a nonterminal twice in one right-hand side, and the start
# symbol on right-hand sides
RULE_FILE = """
S -> S x S | T S T | y
T -> ε | ( S ) | z T
"""
GRAMMARS = {**BUILTIN_GRAMMARS, "rule-file": load_grammar(RULE_FILE, "rule_file")}

CHOICE_DETAIL = (
    "CPython's Random.choice(seq) draws getrandbits(len(seq).bit_length()) until "
    "the value is below len(seq) (Random._randbelow_with_getrandbits); "
    "the {} must follow those draws, or every golden hash moves"
)


def reference_walk(grammar, config, rng):
    """The walk as it was written before it carried positions: each level
    rescans every form, and a sampled combination is drawn with `rng.choice`
    one position at a time."""
    nonterminals = grammar.nonterminals
    options = {nt: [rhs for lhs, rhs in grammar.rules if lhs == nt] for nt in nonterminals}

    def build(form, positions, combo):
        out, cursor = [], 0
        for pos, rhs in zip(positions, combo):
            out += [*form[cursor:pos], *rhs]
            cursor = pos + 1
        return out + form[cursor:]

    level, leaves = [[grammar.start]], []
    for step in range(config.depth):
        pending = []
        for form in level:
            positions = [i for i, sym in enumerate(form) if sym in nonterminals]
            choices = [options[form[i]] for i in positions]
            if math.prod(map(len, choices)) <= config.branching:
                combos = list(itertools.product(*choices))
            else:
                combos = [[rng.choice(opts) for opts in choices] for _ in range(config.branching)]
            for combo in combos:
                if any(sym in nonterminals for rhs in combo for sym in rhs):
                    pending.append((form, positions, combo))
                else:
                    leaves.append((tuple(build(form, positions, combo)), step + 1))
        if step + 1 == config.depth:
            break
        if len(pending) > config.branching:
            pending = rng.sample(pending, config.branching)
        level = [build(form, positions, combo) for form, positions, combo in pending]
    return leaves


DEPTHS = {1: 30, 6: 20, 25: 10, 100: 7}  # branching -> walk depth


@pytest.mark.parametrize("branching", DEPTHS)
@pytest.mark.parametrize("name", GRAMMARS)
def test_walk_draws_as_the_rescanning_walk_does(name, branching):
    grammar = GRAMMARS[name]
    config = GenerationConfig(depth=DEPTHS[branching], branching=branching)
    for seed in range(2):
        ours, theirs = random.Random(seed), random.Random(seed)
        got = []
        try:
            grow_tree(grammar, config, ours, on_leaf=lambda leaf: got.append((leaf.sentential_form, leaf.depth)))
        except derive.EmptyFrontier:  # raised only when no leaf was reached
            pass
        expected = reference_walk(grammar, config, theirs)
        assert got == expected, (name, branching, seed)
        assert ours.getstate() == theirs.getstate(), CHOICE_DETAIL.format("walk")


@pytest.mark.parametrize("name", GRAMMARS)
def test_carried_positions_equal_a_rescan_at_every_level(name, monkeypatch):
    grammar = GRAMMARS[name]
    built = []
    real_build = derive._build

    def build(*entry):
        child = real_build(*entry)
        built.append(child)
        return child

    monkeypatch.setattr(derive, "_build", build)
    for branching in (1, 6, 25):
        try:
            grow_tree(grammar, GenerationConfig(depth=12, branching=branching), random.Random(branching),
                      on_leaf=lambda leaf: None)
        except derive.EmptyFrontier:
            pass
    assert len(built) > 100
    for node, positions in built:
        form = node.sentential_form
        assert positions == [i for i, sym in enumerate(form) if sym in grammar.nonterminals], form


def reference_instantiate(form, formalism, realized, config, rng):
    """The instantiated text, every placeholder drawn with `rng.choice`."""
    if formalism == "prop":
        return " ".join(rng.choice(realized.propositions) if s == "v" else s for s in form)
    if formalism == "regex":
        return "".join(rng.choice(realized.alphabet) if s == "Σ" else s for s in form)
    out, frames, in_scope, var_count, prepend = [], [], [], 0, None
    for sym in form:
        if sym == "(":
            frames.append(None)
            out.append(sym)
        elif sym == ")":
            bound = frames.pop()
            if bound is not None:
                in_scope.remove(bound)
            out.append(sym)
        elif sym == "f":
            var_count += 1
            if frames:
                frames[-1] = f"x{var_count}"
            in_scope.append(f"x{var_count}")
            out.append(f"x{var_count}")
        elif sym == "v":
            out.append(rng.choice(realized.propositions))
        elif sym == "p":
            name = rng.choice(sorted(realized.predicates))
            args = []
            for _ in range(realized.predicates[name]):
                use_var = rng.random() < config.free_variable_prob
                if use_var and in_scope:
                    args.append(rng.choice(in_scope))
                elif use_var and prepend is None:
                    if config.max_free_variables is not None and var_count + 1 > config.max_free_variables:
                        args.append(rng.choice(realized.objects))
                    else:
                        glyph = rng.choice(("∀", "∃"))
                        var_count += 1
                        prepend = [glyph, f"x{var_count}"]
                        in_scope.append(f"x{var_count}")
                        args.append(f"x{var_count}")
                else:
                    args.append(rng.choice(realized.objects))
            out.append(f"{name}({', '.join(args)})")
        else:
            out.append(sym)
    text = " ".join(out)
    return text if prepend is None else f"{prepend[0]} {prepend[1]} . {text}"


VOCABULARIES = {
    "default": VocabularyConfig(),
    "free-variables": VocabularyConfig(free_variable_prob=0.7, max_predicate_arity=3),
    "capped": VocabularyConfig(free_variable_prob=0.9, max_free_variables=0),
    "english": VocabularyConfig(
        naming_mode=ENGLISH, num_propositions=5, num_predicates=7, num_objects=3,
        alphabet_size=7, free_variable_prob=0.5,
    ),
}


@pytest.mark.parametrize("vocabulary", VOCABULARIES)
@pytest.mark.parametrize("grammar_id", ["prop", "ksat3", "fol", "regex"])
def test_instantiate_draws_as_rng_choice_does(grammar_id, vocabulary):
    config = VOCABULARIES[vocabulary]
    formalism = GRAMMAR_FORMALISM[grammar_id]
    leaves = []
    grow_tree(
        BUILTIN_GRAMMARS[grammar_id], GenerationConfig(depth=9, branching=12), random.Random(4),
        on_leaf=leaves.append,
    )
    realized = realize_vocabulary(config, random.Random(5))
    alphabet = set(realized.alphabet) if formalism == "regex" else None
    ours, theirs = random.Random(6), random.Random(6)
    for leaf in leaves[:150]:
        got = instantiate(leaf, realized, config, ours, grammar_id)
        text = reference_instantiate(leaf.sentential_form, formalism, realized, config, theirs)
        expected = parse_expression(formalism, text, alphabet)
        assert got == expected and got.ast == expected.ast, text
        assert ours.getstate() == theirs.getstate(), CHOICE_DETAIL.format("placeholder draws")
