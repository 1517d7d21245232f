"""A logic expression that `instantiate` makes holds its formalism and
canonical text, not its tree. The first `.ast` read parses that text once and
keeps the tree. Equality and hashing read formalism and text only. A regex
expression, and any expression built from a tree, keeps its tree."""

import random

import pytest

from formaltrip import storage
from formaltrip.grammar import (
    FOL,
    KSAT3,
    PROP,
    REGEX,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
    grow_tree,
    instantiate,
    realize_vocabulary,
)
from formaltrip.pipeline.providers import corrupt_expression
from formaltrip.syntax import (
    Atom,
    Proposition,
    make_expression,
    parse_expression,
    parse_fol,
    parse_prop,
    simplify_expression,
)
from formaltrip.syntax import parse as parse_module

PARSERS = {"prop": parse_prop, "fol": parse_fol}
LOGIC = [PROP, FOL, KSAT3]


def instantiated(grammar, seed, count=20):
    """`count` expressions from the deepest leaves of a seeded walk: long
    texts that no other test keeps alive with a tree. Repeats are dropped."""
    vocab = VocabularyConfig()
    rng = random.Random(seed)
    realized = realize_vocabulary(vocab, rng)
    leaves = []
    grow_tree(grammar, GenerationConfig(depth=10, branching=12), random.Random(seed), on_leaf=leaves.append)
    exprs = [instantiate(leaf, realized, vocab, rng, grammar.id) for leaf in leaves[-count:]]
    return list(dict.fromkeys(exprs))


def counting_logic_parses(monkeypatch) -> list:
    calls = []
    parse_logic = parse_module._parse_logic

    def counting(text, fol):
        calls.append(text)
        return parse_logic(text, fol)

    monkeypatch.setattr(parse_module, "_parse_logic", counting)
    return calls


@pytest.mark.parametrize("grammar", LOGIC, ids=lambda g: g.id)
def test_the_tree_is_rebuilt_from_the_text_once_and_kept(grammar, monkeypatch):
    exprs = instantiated(grammar, 7)
    assert len(exprs) > 5
    assert all(expr._ast is None for expr in exprs)
    expected = [PARSERS[expr.formalism](expr.canonical_text) for expr in exprs]
    calls = counting_logic_parses(monkeypatch)
    for expr, tree in zip(exprs, expected):
        calls.clear()
        assert expr.ast == tree
        assert expr.ast is expr.ast
        assert calls == [expr.canonical_text]


@pytest.mark.parametrize("grammar", LOGIC, ids=lambda g: g.id)
def test_a_text_only_expression_equals_and_hashes_like_its_parse(grammar):
    for expr in instantiated(grammar, 8):
        full = make_expression(expr.formalism, PARSERS[expr.formalism](expr.canonical_text))
        assert full is not expr and full._ast is not None and expr._ast is None
        assert full == expr and hash(full) == hash(expr)
        assert parse_expression(expr.formalism, expr.canonical_text) is expr
    # the text alone is not the expression: the formalism is part of it
    assert make_expression("prop", Proposition("p1")) != make_expression("fol", Atom("p1", ()))


def test_a_regex_expression_keeps_its_tree():
    exprs = instantiated(REGEX, 9)
    assert exprs and all(expr._ast is not None for expr in exprs)


def test_an_expression_built_from_a_tree_keeps_it():
    for expr in instantiated(PROP, 10)[:5] + instantiated(FOL, 10)[:5]:
        for built in (corrupt_expression(expr, random.Random(0)), simplify_expression(expr)):
            assert built._ast is not None


@pytest.mark.parametrize("grammar", [*LOGIC, REGEX], ids=lambda g: g.id)
def test_reading_a_written_dataset_returns_the_same_objects(grammar, tmp_path):
    metric = "cfg_depth" if grammar is REGEX else "operator_total"
    records, manifest = generate_dataset(
        grammar, VocabularyConfig(),
        GenerationConfig(depth=8, branching=10, sample_count=3, metric=metric, seed=1, batches=2),
    )
    paths = storage.write_dataset(records, manifest, tmp_path)
    back = [r for path in paths[:-1] for r in storage.read_dataset(path)]
    assert len(back) == len(records)
    by_id = {r.id: r.expression for r in records}
    # two leaves that print alike share one object, and reading finds it
    for r in back:
        assert r.expression is by_id[r.id]


def test_one_object_per_canonical_text():
    first = parse_expression("prop", "( p1 ∧ p2 )", keep_tree=False)
    assert parse_expression("prop", "( p1 ∧ p2 )", keep_tree=False) is first
    assert parse_expression("prop", "p1∧p2") is first
    vocab = VocabularyConfig(num_propositions=2)
    rng = random.Random(1)
    realized = realize_vocabulary(vocab, rng)
    leaves = []
    grow_tree(PROP, GenerationConfig(depth=4, branching=30), random.Random(1), on_leaf=leaves.append)
    exprs = [instantiate(leaf, realized, vocab, rng, "prop") for leaf in leaves]
    by_text = {}
    for expr in exprs:
        assert by_text.setdefault(expr.canonical_text, expr) is expr
    assert len(by_text) < len(exprs)  # some leaf printed like an earlier one


def test_generate_parses_each_kept_leaf_at_most_once(monkeypatch):
    calls = counting_logic_parses(monkeypatch)
    records, _ = generate_dataset(
        KSAT3, VocabularyConfig(), GenerationConfig(depth=10, branching=12, sample_count=3, seed=1)
    )
    assert 0 < len(calls) <= len(records)


def test_the_dfa_path_parses_each_leaf_at_most_once(monkeypatch):
    calls = []
    parse_regex = parse_module.parse_regex

    def counting(text, alphabet=None):
        calls.append(text)
        return parse_regex(text, alphabet)

    monkeypatch.setattr(parse_module, "parse_regex", counting)
    _, manifest = generate_dataset(
        REGEX, VocabularyConfig(),
        GenerationConfig(depth=6, branching=12, sample_count=3, metric="dfa_nodes", seed=1),
    )
    leaves = sum(c["available"] for c in manifest.categories.values())
    assert 0 < len(calls) <= leaves
