"""Shared random-formula builders and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from formaltrip.syntax.nodes import (
    And,
    Atom,
    Concat,
    Constant,
    Literal,
    Not,
    Or,
    Proposition,
    Quantified,
    Star,
    Variable,
)

# ---------------------------------------------------------------------------
# seeded random builders (plain random module, for bulk oracle comparisons)


def random_prop(rng: random.Random, max_depth: int = 4, n_vars: int = 6):
    if max_depth == 0 or rng.random() < 0.3:
        return Proposition(f"p{rng.randint(1, n_vars)}")
    kind = rng.randint(0, 2)
    if kind == 0:
        return Not(random_prop(rng, max_depth - 1, n_vars))
    children = tuple(
        random_prop(rng, max_depth - 1, n_vars) for _ in range(rng.randint(2, 3))
    )
    return And(children) if kind == 1 else Or(children)


def random_regex(rng: random.Random, max_depth: int = 4, alphabet=("0", "1")):
    if max_depth == 0 or rng.random() < 0.35:
        return Literal(rng.choice(alphabet))
    kind = rng.randint(0, 1)
    if kind == 0:
        return Star(random_regex(rng, max_depth - 1, alphabet))
    children = tuple(
        random_regex(rng, max_depth - 1, alphabet) for _ in range(rng.randint(2, 3))
    )
    return Concat(children)


def random_fol(rng: random.Random, max_depth: int = 3, n_preds: int = 2, n_consts: int = 2):
    """Closed prenex formula with small symbol sets (model search stays cheap)."""
    n_quants = rng.randint(0, 2)
    variables = [f"x{i}" for i in range(1, n_quants + 1)]
    prefix = tuple(
        (rng.choice(("forall", "exists")), (v,)) for v in variables
    )
    arities = {f"pred{i}": rng.randint(1, 2) for i in range(1, n_preds + 1)}

    def matrix(depth):
        if depth == 0 or rng.random() < 0.4:
            pred = f"pred{rng.randint(1, n_preds)}"
            terms = []
            for _ in range(arities[pred]):
                if variables and rng.random() < 0.5:
                    terms.append(Variable(rng.choice(variables)))
                else:
                    terms.append(Constant(f"p{rng.randint(1, n_consts)}"))
            return Atom(pred, tuple(terms))
        kind = rng.randint(0, 2)
        if kind == 0:
            return Not(matrix(depth - 1))
        children = tuple(matrix(depth - 1) for _ in range(2))
        return And(children) if kind == 1 else Or(children)

    return quantify(prefix, matrix(max_depth))


def quantify(prefix, body):
    """`body` under one Quantified node per (kind, names) block, outermost first."""
    for kind, names in reversed(prefix):
        body = Quantified(kind, names, body)
    return body


@pytest.fixture
def rng():
    return random.Random(0xF0F0)


# ---------------------------------------------------------------------------
# hypothesis strategies

prop_names = st.integers(min_value=1, max_value=6).map(lambda i: f"p{i}")

prop_formulas = st.recursive(
    prop_names.map(Proposition),
    lambda children: st.one_of(
        children.map(Not),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
    ),
    max_leaves=12,
)

regex_literals = st.sampled_from(["0", "1"]).map(Literal)

regex_asts = st.recursive(
    regex_literals,
    lambda children: st.one_of(
        children.map(Star),
        st.lists(children, min_size=2, max_size=3).map(lambda cs: Concat(tuple(cs))),
    ),
    max_leaves=10,
)
