"""Seeded benchmark inputs: derivation walks, a per-category sampler and
dataset files, built only from formaltrip's public grammar/storage API.

`grammar.generate_dataset` is not used: it calls a reservoir helper that the
package does not define, so it raises NameError. The walk (`grow_tree`) and
instantiation (`instantiate`) are driven here instead.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from formaltrip import storage
from formaltrip.grammar import (
    BUILTIN_GRAMMARS,
    GRAMMAR_FORMALISM,
    DatasetManifest,
    DatasetRecord,
    DerivationNode,
    GenerationConfig,
    VocabularyConfig,
    grow_tree,
    instantiate,
    leaf_metric_value,
    realize_vocabulary,
)

from spans import NULL_TRACER


BATCHES = 2  # dataset files per grammar


@dataclass(frozen=True)
class GrammarPlan:
    """How one grammar's dataset is made: `walks` independent walks of
    `depth`/`branching` feed one sampler that keeps `quota` leaves per
    category of `metric`. Categories above `max_value` are not sampled, so
    that the dataset's size and make-up hardly vary with the seed."""

    grammar_id: str
    depth: int
    branching: int
    walks: int
    quota: int
    max_value: int | None = None

    @property
    def metric(self) -> str:
        return "cfg_depth" if GRAMMAR_FORMALISM[self.grammar_id] == "regex" else "operator_total"


def derive_seed(*parts) -> int:
    """A stable 64-bit seed from any printable parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class CategorySampler:
    """Uniform sample of at most `quota` items per category over a stream
    (Vitter's Algorithm R per category). Only parent-less
    DerivationNode(form, depth) copies are kept, never the walk's tree."""

    def __init__(self, quota: int, rng: random.Random):
        self.quota = quota
        self.rng = rng
        self.kept: dict = {}
        self.seen: dict = {}
        self.leaves = 0

    def add(self, value, leaf: DerivationNode, keep: bool = True):
        """Count the leaf; sample it only when `keep`."""
        self.leaves += 1
        if not keep:
            return
        n = self.seen.get(value, 0) + 1
        self.seen[value] = n
        kept = self.kept.setdefault(value, [])
        if len(kept) < self.quota:
            kept.append(DerivationNode(leaf.sentential_form, leaf.depth))
            return
        j = self.rng.randrange(n)
        if j < self.quota:
            kept[j] = DerivationNode(leaf.sentential_form, leaf.depth)


def walk(plan: GrammarPlan, sampler: CategorySampler, key: tuple, index: int, tracer=NULL_TRACER):
    """Walk number `index` of input set `key`, streaming its leaves into `sampler`."""
    grammar = BUILTIN_GRAMMARS[plan.grammar_id]
    config = GenerationConfig(depth=plan.depth, branching=plan.branching)
    rng = random.Random(derive_seed(*key, "walk", index))
    metric, cap = plan.metric, plan.max_value

    def on_leaf(leaf):
        with tracer.span("bench.sink"):
            value = leaf_metric_value(leaf, metric)
            sampler.add(value, leaf, keep=cap is None or value <= cap)

    with tracer.span("grammar.derive.walk", key=plan.grammar_id):
        grow_tree(grammar, config, rng, on_leaf=on_leaf)


def build_dataset(plan: GrammarPlan, seed: int, out_dir: Path, tracer=NULL_TRACER, stream: int = 0):
    """Walk, sample, instantiate and write one grammar's dataset; `stream`
    selects one of the seed's independent input sets.

    Returns (records, paths written, leaves seen)."""
    key = (seed, stream, plan.grammar_id)
    sampler = CategorySampler(plan.quota, random.Random(derive_seed(*key, "sample")))
    for index in range(plan.walks):
        walk(plan, sampler, key, index, tracer)

    rng = random.Random(derive_seed(*key, "vocabulary"))
    vocab_config = VocabularyConfig()
    realized = realize_vocabulary(vocab_config, rng)
    snapshot = realized.snapshot()
    formalism = GRAMMAR_FORMALISM[plan.grammar_id]
    records: list[DatasetRecord] = []
    categories = {}
    for value in sorted(sampler.kept):
        kept = sampler.kept[value]
        categories[value] = {"available": sampler.seen[value], "sampled": len(kept)}
        for node in kept:
            with tracer.span("grammar.vocab.instantiate"):
                expr = instantiate(node, realized, vocab_config, rng, plan.grammar_id)
            i = len(records)
            records.append(DatasetRecord(
                id=f"{plan.grammar_id}-{plan.metric}-{value}-{i:05d}",
                formalism=formalism,
                grammar_id=plan.grammar_id,
                batch_index=i % BATCHES,
                category_metric=plan.metric,
                category_value=value,
                expression=expr,
                cfg_depth=node.depth,
                vocabulary=snapshot,
                seed=seed,
            ))
    manifest = DatasetManifest(
        grammar_id=plan.grammar_id,
        metric=plan.metric,
        seed=seed,
        batches=BATCHES,
        total=len(records),
        categories=categories,
        config={"depth": plan.depth, "branching": plan.branching, "walks": plan.walks,
                "sample_count": plan.quota, "vocabulary": snapshot},
    )
    with tracer.span("storage.write_dataset"):
        paths = storage.write_dataset(records, manifest, out_dir)
    return records, paths, sampler.leaves


def batch_files(paths) -> list[Path]:
    """The per-batch dataset files among write_dataset's outputs."""
    return [p for p in paths if not p.name.endswith("_manifest.json")]


def tree_sha256(paths) -> str:
    """One hash over the names and bytes of several files."""
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()
