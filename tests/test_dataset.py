import random

import pytest

from conftest import random_fol, random_prop, random_regex
from formaltrip.grammar import (
    FOL,
    KSAT3,
    PROP,
    REGEX,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
    grow_tree,
    infer_formalism,
    instantiate,
    load_grammar,
    realize_vocabulary,
)
from formaltrip.grammar.dataset import (
    COUNT_METRICS,
    _reservoir_add,
    expression_metric_value,
    leaf_metric_value,
)
from formaltrip.syntax import make_expression, parse_expression
from formaltrip.syntax.nodes import (
    FORALL, Atom, And, Constant, Not, Or, Proposition, Quantified, Star, Variable, walk,
)


def small(depth=6, branching=20, sample_count=5, metric="operator_total", seed=11, batches=2):
    return GenerationConfig(
        depth=depth, branching=branching, sample_count=sample_count,
        metric=metric, seed=seed, batches=batches,
    )


# --- instantiation -----------------------------------------------------------

def leaves_of(grammar, config, seed):
    leaves = []
    grow_tree(grammar, config, random.Random(seed), on_leaf=leaves.append)
    return leaves


def test_prop_placeholders_replaced():
    vocab = VocabularyConfig(num_propositions=12)
    rng = random.Random(1)
    realized = realize_vocabulary(vocab, rng)
    for leaf in leaves_of(KSAT3, small(), 1)[:20]:
        expr = instantiate(leaf, realized, vocab, rng, "ksat3")
        assert "v" not in expr.canonical_text.split()
        assert expr.formalism == "prop"


def test_zero_free_variable_prob_gives_ground_formulas():
    vocab = VocabularyConfig(free_variable_prob=0.0)
    rng = random.Random(2)
    realized = realize_vocabulary(vocab, rng)
    for leaf in leaves_of(FOL, small(depth=7), 2)[:50]:
        expr = instantiate(leaf, realized, vocab, rng, "fol")
        assert not _variables_in(expr.ast)


def test_prob_one_makes_every_slot_a_variable():
    vocab = VocabularyConfig(free_variable_prob=1.0)
    rng = random.Random(3)
    realized = realize_vocabulary(vocab, rng)
    for leaf in leaves_of(FOL, small(depth=7), 3)[:50]:
        expr = instantiate(leaf, realized, vocab, rng, "fol")
        assert not _constants_in(expr.ast)


def test_variable_cap_keeps_objects():
    vocab = VocabularyConfig(free_variable_prob=1.0, max_free_variables=0)
    rng = random.Random(4)
    realized = realize_vocabulary(vocab, rng)
    for leaf in leaves_of(FOL, small(depth=5), 4)[:30]:
        if any(s in ("∀", "∃") for s in leaf.sentential_form):
            continue  # structural quantifiers still declare variables
        expr = instantiate(leaf, realized, vocab, rng, "fol")
        assert type(expr.ast) is not Quantified
        assert not _variables_in(expr.ast)


def test_predicate_arity_fixed_per_dataset():
    vocab = VocabularyConfig()
    rng = random.Random(5)
    realized = realize_vocabulary(vocab, rng)
    seen: dict[str, int] = {}
    for leaf in leaves_of(FOL, small(depth=8), 5)[:100]:
        expr = instantiate(leaf, realized, vocab, rng, "fol")
        for pred, arity in _arities_in(expr.ast).items():
            assert seen.setdefault(pred, arity) == arity
            assert arity == realized.predicates[pred]


def _variables_in(node):
    found = []

    def walk(n):
        if isinstance(n, Atom):
            found.extend(t for t in n.terms if isinstance(t, Variable))
        elif isinstance(n, Not):
            walk(n.child)
        elif isinstance(n, (And, Or)):
            for c in n.children:
                walk(c)
        elif isinstance(n, Quantified):
            walk(n.body)

    walk(node)
    return found


def _constants_in(node):
    found = []

    def walk(n):
        if isinstance(n, Atom):
            found.extend(t for t in n.terms if isinstance(t, Constant))
        elif isinstance(n, Not):
            walk(n.child)
        elif isinstance(n, (And, Or)):
            for c in n.children:
                walk(c)
        elif isinstance(n, Quantified):
            walk(n.body)

    walk(node)
    return found


def _arities_in(node):
    out = {}

    def walk(n):
        if isinstance(n, Atom):
            out[n.predicate] = len(n.terms)
        elif isinstance(n, Not):
            walk(n.child)
        elif isinstance(n, (And, Or)):
            for c in n.children:
                walk(c)
        elif isinstance(n, Quantified):
            walk(n.body)

    walk(node)
    return out


# --- dataset assembly ----------------------------------------------------------

def test_reservoir_keeps_each_item_with_equal_probability():
    trials, quota = 30_000, 3
    kept_count = [0] * 10
    for trial in range(trials):
        reservoirs: dict = {}
        available: dict = {}
        rng = random.Random(trial)
        for item in range(10):
            _reservoir_add(reservoirs, available, "c", item, quota, rng)
        assert available == {"c": 10}
        assert len(reservoirs["c"]) == quota
        for item in reservoirs["c"]:
            kept_count[item] += 1
    # each item is kept with probability quota / 10 = 0.3; 0.015 is ~5 sigma
    for item, count in enumerate(kept_count):
        assert abs(count / trials - 0.3) < 0.015, (item, count / trials)


def test_reservoir_below_quota_keeps_all_in_order_without_drawing():
    reservoirs: dict = {}
    available: dict = {}
    rng = random.Random(5)
    state = rng.getstate()
    for item in ("a", "b", "c"):
        _reservoir_add(reservoirs, available, 1, item, 5, rng)
    assert reservoirs == {1: ["a", "b", "c"]}
    assert available == {1: 3}
    assert rng.getstate() == state


def test_balance_up_to_availability():
    records, manifest = generate_dataset(PROP, VocabularyConfig(), small())
    per_value: dict = {}
    for r in records:
        per_value[r.category_value] = per_value.get(r.category_value, 0) + 1
    for value, counts in manifest.categories.items():
        expected = min(5, counts["available"])
        assert per_value[value] == expected == counts["sampled"]


def test_round_robin_batching():
    records, manifest = generate_dataset(PROP, VocabularyConfig(), small())
    for i, r in enumerate(records):
        assert r.batch_index == i % manifest.batches


def test_category_value_matches_recomputed_complexity():
    records, _ = generate_dataset(PROP, VocabularyConfig(), small())
    for r in records:
        value = expression_metric_value(r.expression, r.category_metric, r.cfg_depth, None)
        assert value == r.category_value


@pytest.mark.parametrize("grammar", [
    KSAT3, PROP, FOL, REGEX, load_grammar("S -> ( S and S ) | not v | v", "words"),
], ids=lambda g: g.id)
def test_leaf_counts_agree_with_expression_counts(grammar):
    formalism = infer_formalism(grammar)
    vocab = VocabularyConfig()
    rng = random.Random(7)
    realized = realize_vocabulary(vocab, rng)
    leaves = leaves_of(grammar, small(depth=5, branching=10), 7)
    assert leaves
    for leaf in leaves:
        expr = instantiate(leaf, realized, vocab, rng, formalism)
        for metric in COUNT_METRICS:
            assert leaf_metric_value(leaf, metric) == expression_metric_value(
                expr, metric, leaf.depth, realized.alphabet
            ), (metric, leaf.sentential_form)


# the tree nodes each count metric counts, kept apart from the glyphs that
# dataset.COUNT_METRICS counts in canonical text
COUNTED_NODES = {
    "operator_total": (Not, And, Or, Star),
    "and_count": (And,),
    "or_count": (Or,),
    "not_count": (Not,),
}


def walk_count(tree, types) -> int:
    return sum(len(node.children) - 1 if type(node) in (And, Or) else 1
               for node in walk(tree) if type(node) in types)


def assert_counts_match_a_walk(expr, tree):
    assert set(COUNTED_NODES) == set(COUNT_METRICS)
    for metric, types in COUNTED_NODES.items():
        assert expression_metric_value(expr, metric, 0, None) == walk_count(tree, types), (
            metric, expr.canonical_text)


def test_operator_counts_match_a_walk_of_the_tree():
    rng = random.Random(5)
    for _ in range(200):
        for formalism, tree in (("prop", random_prop(rng, 6)), ("regex", random_regex(rng, 6)),
                                ("fol", random_fol(rng, 5))):
            assert_counts_match_a_walk(make_expression(formalism, tree), tree)


def test_operator_counts_match_a_walk_of_nested_and_or_trees():
    # an And directly in an And (Or in an Or) is no parse's output, but a
    # corrupted or hand-built tree may hold one: each node still prints k-1 glyphs
    p1, p2, p3, p4 = (Proposition(f"p{i}") for i in range(1, 5))
    for kind, other in ((And, Or), (Or, And)):
        for tree in (
            kind((kind((p1, p2)), p3)),
            kind((p1, kind((p2, Not(p3), p4)))),
            kind((kind((p1, p2)), kind((p3, other((p4, p1)))))),
            Not(kind((kind((p1, Not(p2))), p3, p4))),
        ):
            assert_counts_match_a_walk(make_expression("prop", tree), tree)
    atom = Atom("pred1", (Variable("x1"),))
    tree = Quantified(FORALL, ("x1",), And((And((atom, Not(atom))), Or((Or((atom, atom)), atom)))))
    assert_counts_match_a_walk(make_expression("fol", tree), tree)


@pytest.mark.parametrize("grammar", [PROP, FOL, KSAT3, REGEX], ids=lambda g: g.id)
def test_operator_counts_match_a_walk_of_depth_40_output(grammar):
    metric = "cfg_depth" if grammar.id == "regex" else "operator_total"
    records, _ = generate_dataset(
        grammar, VocabularyConfig(), small(depth=40, branching=6, metric=metric)
    )
    assert records
    for r in records:
        assert_counts_match_a_walk(r.expression, r.expression.ast)


def test_determinism_across_runs():
    a, _ = generate_dataset(FOL, VocabularyConfig(), small(depth=7))
    b, _ = generate_dataset(FOL, VocabularyConfig(), small(depth=7))
    assert [r.expression.canonical_text for r in a] == [
        r.expression.canonical_text for r in b
    ]
    assert [r.id for r in a] == [r.id for r in b]


def test_all_outputs_parse_and_deinstantiate():
    for grammar, vocab in (
        (KSAT3, VocabularyConfig()),
        (PROP, VocabularyConfig()),
        (FOL, VocabularyConfig()),
        (REGEX, VocabularyConfig()),
    ):
        metric = "cfg_depth" if grammar.id == "regex" else "operator_total"
        records, _ = generate_dataset(grammar, vocab, small(metric=metric))
        for r in records:
            alphabet = set(r.vocabulary["alphabet"]) if r.formalism == "regex" else None
            reparsed = parse_expression(r.formalism, r.expression.canonical_text, alphabet)
            assert reparsed.ast == r.expression.ast


def test_dfa_metric_categorization():
    records, manifest = generate_dataset(
        REGEX, VocabularyConfig(), small(metric="dfa_density", depth=5)
    )
    assert records
    for r in records:
        assert isinstance(r.category_value, float)
        assert r.category_value == round(r.category_value, 1)


def test_dfa_metric_rejected_for_logic():
    with pytest.raises(ValueError):
        generate_dataset(PROP, VocabularyConfig(), small(metric="dfa_nodes"))


def test_regex_coverage_at_tiny_scale():
    # exhaustively enumerable configuration: every derivable expression
    # should appear across seeded runs
    target: set[str] = set()
    full = GenerationConfig(depth=3, branching=10**6, sample_count=1, seed=0)
    for leaf in leaves_of(REGEX, full, 0):
        text = leaf.text.replace(" ", "").replace("Σ", "0")
        target.add(parse_expression("regex", text, {"0"}).canonical_text)
    assert len(target) == 7

    seen: set[str] = set()
    for seed in range(1000):
        config = GenerationConfig(
            depth=3, branching=4, sample_count=10, seed=seed, batches=1
        )
        records, _ = generate_dataset(
            REGEX, VocabularyConfig(alphabet_size=1), config
        )
        seen.update(r.expression.canonical_text for r in records)
        if target <= seen:
            break
    assert target <= seen
