"""Balanced dataset assembly: categorize leaves, sample per category,
instantiate, and split round-robin into batches.

Operator counts and derivation depth are computable on raw leaves, so
those metrics group before instantiation (sampling then instantiating
only what is kept). Automaton metrics exist only after symbols are drawn,
so the dfa_* metrics instantiate every leaf first and group afterwards.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from ..syntax import FormalExpression
from ..syntax.parse import AND_WORDS, NOT_WORDS, OR_WORDS
from ..verify.regex import compile_regex, dfa_metrics
from .cfg import GrammarSpec, infer_formalism
from .derive import DerivationNode, GenerationConfig, grow_tree
from .vocab import VocabularyConfig, instantiate, realize_vocabulary

logger = logging.getLogger(__name__)

# The operator counts: metric -> (the leaf tokens it counts, which are the
# parser's own connective words, and the printer's glyphs for them in
# canonical text). An n-ary And/Or with k children prints k-1 glyphs, as in
# its binary form; quantifiers are not operators, and a regex's only
# operator is star. No name or alphabet symbol holds a glyph, so the glyphs
# of a canonical text count the operators of its tree.
COUNT_METRICS = {
    "operator_total": (frozenset(NOT_WORDS | AND_WORDS | OR_WORDS | {"*"}), "¬∧∨*"),
    "and_count": (frozenset(AND_WORDS), "∧"),
    "or_count": (frozenset(OR_WORDS), "∨"),
    "not_count": (frozenset(NOT_WORDS), "¬"),
}
PRE_INSTANTIATION_METRICS = (*COUNT_METRICS, "cfg_depth")
DFA_METRICS = ("dfa_nodes", "dfa_edges", "dfa_density")
ALL_METRICS = PRE_INSTANTIATION_METRICS + DFA_METRICS


@dataclass
class DatasetRecord:
    id: str
    formalism: str
    grammar_id: str
    batch_index: int
    category_metric: str
    category_value: int | float
    expression: FormalExpression
    cfg_depth: int
    vocabulary: dict
    seed: int


@dataclass
class DatasetManifest:
    grammar_id: str
    metric: str
    seed: int
    batches: int
    total: int
    categories: dict  # value -> {"available": n, "sampled": m}
    warnings: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)


def leaf_metric_value(leaf: DerivationNode, metric: str) -> int:
    if metric == "cfg_depth":
        return leaf.depth
    if metric not in COUNT_METRICS:
        raise ValueError(f"metric {metric!r} is not leaf-computable")
    words = COUNT_METRICS[metric][0]
    return sum(1 for s in leaf.sentential_form if s in words)


def expression_metric_value(
    expr: FormalExpression, metric: str, cfg_depth: int, alphabet
) -> int | float:
    if metric == "cfg_depth":
        return cfg_depth
    if metric in COUNT_METRICS:
        text = expr.canonical_text
        return sum(text.count(glyph) for glyph in COUNT_METRICS[metric][1])
    m = dfa_metrics(compile_regex(expr.ast, alphabet))
    return {
        "dfa_nodes": m.node_count,
        "dfa_edges": m.edge_count,
        "dfa_density": m.density,
    }[metric]


def check_metric(metric: str, formalism: str) -> None:
    """Raise ValueError unless metric can categorize expressions of formalism."""
    if metric not in ALL_METRICS:
        raise ValueError(f"unknown categorization metric {metric!r}")
    if metric in DFA_METRICS and formalism != "regex":
        raise ValueError(f"categorization metric {metric!r} applies to the regex formalism only")


def generate_dataset(
    grammar: GrammarSpec,
    vocab_config: VocabularyConfig,
    gen_config: GenerationConfig,
) -> tuple[list[DatasetRecord], DatasetManifest]:
    formalism = infer_formalism(grammar)
    check_metric(gen_config.metric, formalism)

    rng = random.Random(gen_config.seed)
    realized = realize_vocabulary(vocab_config, rng)
    metric = gen_config.metric
    quota = gen_config.sample_count

    # per-category uniform reservoirs over the leaf stream: same distribution
    # as grouping every leaf and then sampling, but memory stays bounded at
    # quota items per category even for deep, wide walks
    reservoirs: dict = {}
    available: dict = {}

    if metric in PRE_INSTANTIATION_METRICS:
        def on_leaf(leaf: DerivationNode):
            _reservoir_add(reservoirs, available, leaf_metric_value(leaf, metric), leaf, quota, rng)
    else:
        def on_leaf(leaf: DerivationNode):
            expr = instantiate(leaf, realized, vocab_config, rng, formalism)
            value = expression_metric_value(expr, metric, leaf.depth, realized.alphabet)
            _reservoir_add(reservoirs, available, value, (expr, leaf.depth), quota, rng)

    grow_tree(grammar, gen_config, rng, on_leaf=on_leaf)

    records: list[DatasetRecord] = []
    categories: dict = {}
    warnings: list[str] = []
    snapshot = realized.snapshot()
    for value in sorted(reservoirs):
        # a category's leaves are released as its records are built
        chosen = reservoirs.pop(value)
        take = len(chosen)
        if take < quota:
            msg = (
                f"category {metric}={value}: only {take} of "
                f"{quota} requested samples available"
            )
            warnings.append(msg)
            logger.warning(msg)
        categories[value] = {"available": available[value], "sampled": take}
        for k, item in enumerate(chosen):
            chosen[k] = None
            if metric in PRE_INSTANTIATION_METRICS:
                expr = instantiate(item, realized, vocab_config, rng, formalism)
                depth = item.depth
                recomputed = expression_metric_value(expr, metric, depth, realized.alphabet)
                # a rule file's terminal such as "∧v" hides a connective from the leaf count
                if recomputed != value:
                    raise ValueError(
                        f"metric drifted during instantiation: {value} -> {recomputed}"
                    )
            else:
                expr, depth = item
            i = len(records)
            records.append(
                DatasetRecord(
                    id=f"{grammar.id}-{metric}-{_slug(value)}-{i:05d}",
                    formalism=formalism,
                    grammar_id=grammar.id,
                    batch_index=i % gen_config.batches,
                    category_metric=metric,
                    category_value=value,
                    expression=expr,
                    cfg_depth=depth,
                    vocabulary=snapshot,
                    seed=gen_config.seed,
                )
            )
    manifest = DatasetManifest(
        grammar_id=grammar.id,
        metric=metric,
        seed=gen_config.seed,
        batches=gen_config.batches,
        total=len(records),
        categories=categories,
        warnings=warnings,
        config={
            "depth": gen_config.depth,
            "branching": gen_config.branching,
            "sample_count": gen_config.sample_count,
            "vocabulary": snapshot,
        },
    )
    return records, manifest


def _reservoir_add(reservoirs: dict, available: dict, value, item, quota: int, rng) -> None:
    """Offer ``item`` to the reservoir of category ``value`` (Algorithm R).

    ``available[value]`` counts every item offered, kept or not. A category
    keeps the first ``quota`` items as they arrive, drawing nothing from
    ``rng``; after that the n-th item replaces slot ``rng.randrange(n)``
    when that slot is below ``quota``, so each item seen so far is kept with
    probability quota / n.
    """
    n = available.get(value, 0) + 1
    available[value] = n
    kept = reservoirs.setdefault(value, [])
    if len(kept) < quota:
        kept.append(item)
        return
    j = rng.randrange(n)
    if j < quota:
        kept[j] = item


def _slug(value) -> str:
    return str(value).replace(".", "_")
