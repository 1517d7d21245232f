"""Random-walk derivation of a grammar's sentence tree.

Each level samples up to `branching` frontier nodes uniformly without
replacement and gives each up to `branching` children. A child rewrites
every nonterminal occurrence of its parent's sentential form once, each
with an independently drawn applicable rule (choices drawn left to
right); when a node's rewrite-combination space is no larger than the
branching factor it is enumerated exhaustively instead of sampled.
Terminal children are handed to the caller as leaves at every level.

A level holds up to branching² children but only `branching` of them
survive the next sample, so a nonterminal child is kept as its parent
plus the rules it applies, and its sentential form is built only when
it is sampled. Terminal children are built when they are emitted.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .cfg import GrammarSpec


class EmptyFrontier(RuntimeError):
    """The grammar produced no terminal string within the depth bound."""


@dataclass
class GenerationConfig:
    depth: int = 40
    branching: int = 200
    sample_count: int = 50
    metric: str = "operator_total"
    batches: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1 or self.branching < 1 or self.sample_count < 1:
            raise ValueError("depth, branching, and sample_count must be >= 1")
        if self.batches < 1:
            raise ValueError("batches must be >= 1")


@dataclass
class DerivationNode:
    sentential_form: tuple[str, ...]
    depth: int

    @property
    def text(self) -> str:
        return " ".join(self.sentential_form)


# one way to rewrite a nonterminal: (right-hand side, its nonterminals' offsets)
Option = tuple[tuple[str, ...], tuple[int, ...]]


def grow_tree(grammar: GrammarSpec, config: GenerationConfig, rng: random.Random, on_leaf) -> None:
    """Walk the derivation tree, passing each terminal node to `on_leaf` as
    it is made: memory stays bounded by one level's frontier."""
    nonterminals = grammar.nonterminals
    options: dict[str, list[Option]] = {nt: [] for nt in nonterminals}
    for lhs, rhs in grammar.rules:
        options[lhs].append((rhs, tuple(k for k, sym in enumerate(rhs) if sym in nonterminals)))

    # each level entry is a node and the positions of the nonterminals in its form
    level = [(DerivationNode((grammar.start,), 0), [0])]
    reached = 0
    for step in range(config.depth):
        # nonterminal children wait as (parent, nonterminal positions, combo)
        pending = []
        for node, positions in level:
            form = node.sentential_form
            # draw every combo before emitting any leaf: on_leaf may draw from rng
            for combo in _combos([options[form[i]] for i in positions], config.branching, rng):
                for _, offsets in combo:
                    if offsets:
                        pending.append((node, positions, combo))
                        break
                else:
                    reached += 1
                    on_leaf(_build(node, positions, combo)[0])
        if step + 1 == config.depth:
            break
        if len(pending) > config.branching:
            pending = rng.sample(pending, config.branching)
        level = [_build(*entry) for entry in pending]
    if not reached:
        raise EmptyFrontier(
            f"grammar {grammar.id!r} yields no terminal string within depth {config.depth}"
        )


def _combos(choices: list[list[Option]], n: int, rng: random.Random) -> list[tuple[Option, ...]]:
    """Up to `n` rewrite combinations: all of them when there are at most
    `n`, else `n` drawn one position at a time, left to right, exactly as
    `rng.choice` draws: `getrandbits` of the list size's bit width until
    the value is below the size."""
    total = 1
    for opts in choices:
        total *= len(opts)
        if total > n:
            return _draw(choices, n, rng.getrandbits)
    return list(itertools.product(*choices))


def _draw(choices: list[list[Option]], n: int, getrandbits) -> list[tuple[Option, ...]]:
    """`n` combinations, one option drawn per position; a list's size and
    bit width are taken once, not per draw."""
    draws = [(opts, len(opts), len(opts).bit_length()) for opts in choices]
    combos = []
    for _ in range(n):
        combo = []
        for opts, size, bits in draws:
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            combo.append(opts[r])
        combos.append(tuple(combo))
    return combos


def _build(
    parent: DerivationNode, positions: list[int], combo: tuple[Option, ...]
) -> tuple[DerivationNode, list[int]]:
    """The child of `parent` that rewrites the nonterminal at each position
    with the matching option of `combo`, and the positions of the
    nonterminals in the child's form: every symbol of the parent's form
    outside `positions` is a terminal, so these are the options' offsets."""
    form = parent.sentential_form
    new_form: list[str] = []
    new_positions: list[int] = []
    cursor = 0
    for pos, (rhs, offsets) in zip(positions, combo):
        new_form.extend(form[cursor:pos])
        if offsets:
            base = len(new_form)
            new_positions.extend([base + k for k in offsets])
        new_form.extend(rhs)
        cursor = pos + 1
    new_form.extend(form[cursor:])
    return DerivationNode(tuple(new_form), parent.depth + 1), new_positions
