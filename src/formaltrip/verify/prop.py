"""Propositional equivalence over the union of both variable sets.

Each side is evaluated bit-parallel over its truth table: a table is a
Python int whose bit r is the value at row r, and variable i is bit i of r.
`first_difference` walks the 2**n rows in blocks of 2**EXHAUSTIVE_LIMIT and
returns the lowest row where the two tables differ, the witness. The same
block search and the same evaluator, `truth_table`, serve
`fol.find_countermodel` over ground atoms. The check is decisive: no
Unknown verdicts.
"""

from __future__ import annotations

import time
from functools import reduce
from itertools import product
from operator import and_, or_

from ..syntax.nodes import FORALL, And, Atom, Not, Or, Proposition, Quantified, symbols
from .verdict import EquivalenceVerdict, equivalent, not_equivalent

EXHAUSTIVE_LIMIT = 20

Assignment = dict[str, bool]


class MissingVariable(KeyError):
    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


def eval_prop(formula, assignment: Assignment) -> bool:
    """Standard boolean semantics; every variable of f must be assigned."""
    if isinstance(formula, Proposition):
        try:
            return assignment[formula.name]
        except KeyError:
            raise MissingVariable(formula.name) from None
    if isinstance(formula, Not):
        return not eval_prop(formula.child, assignment)
    if isinstance(formula, And):
        return all(eval_prop(c, assignment) for c in formula.children)
    if isinstance(formula, Or):
        return any(eval_prop(c, assignment) for c in formula.children)
    raise TypeError(f"not a propositional node: {formula!r}")


def equivalent_prop(f, g) -> EquivalenceVerdict:
    if f == g:
        return equivalent()
    names = sorted({*symbols(f).propositions, *symbols(g).propositions})
    # The witness is pinned in both ranges. Within one block it is the first
    # differing row in counting order, the first name the lowest bit; past
    # one block it is the least differing assignment in name order, False
    # before True, so there the first name is the highest bit.
    order = names if len(names) <= EXHAUSTIVE_LIMIT else names[::-1]

    def difference(columns: list[int], full: int) -> int:
        by_name = dict(zip(order, columns))
        leaf = lambda node, env: by_name[node.name]
        return truth_table(f, leaf, full) ^ truth_table(g, leaf, full)

    row = first_difference(len(names), difference)
    if row is None:
        return equivalent()
    return not_equivalent(witness=dict(sorted((name, bool(row >> i & 1)) for i, name in enumerate(order))))


def first_difference(n: int, difference, deadline: float | None = None) -> int | None:
    """The lowest of the 2**n rows where two truth tables over n variables
    differ, or None when none does or the clock passes deadline.

    The rows are walked in blocks of 2**EXHAUSTIVE_LIMIT, the clock read
    before each. For a block, difference(columns, full) gets the truth
    table of variable v over the block's rows as columns[v] (the high
    variables are constant within a block) and the all-ones table full, and
    returns the bits where the two tables differ."""
    low = min(n, EXHAUSTIVE_LIMIT)
    rows = 1 << low
    full = (1 << rows) - 1
    low_columns = [_column(v, rows) for v in range(low)]
    for block in range(1 << (n - low)):
        if deadline is not None and time.monotonic() > deadline:
            return None
        diff = difference(low_columns + [full if block >> v & 1 else 0 for v in range(n - low)], full)
        if diff:
            return block << low | (diff & -diff).bit_length() - 1
    return None


def _column(i: int, rows: int) -> int:
    """The truth table of variable i: bit r is set iff bit i of r is."""
    width = 1 << i
    column = ((1 << width) - 1) << width  # one period: width zeros, then width ones
    period = width << 1
    while period < rows:
        column |= column << period
        period <<= 1
    return column


def truth_table(formula, leaf, full: int, k: int = 0, env: dict | None = None) -> int:
    """The truth table of formula over the rows full spans. leaf(node, env)
    gives the table of a Proposition or an Atom under the variable binding
    env; a Quantified node is the And (forall) or Or (exists) of its body
    over every binding of its variables in range(k)."""
    t = type(formula)
    if t is Proposition or t is Atom:
        return leaf(formula, env)
    if t is Not:
        return full ^ truth_table(formula.child, leaf, full, k, env)
    if t is And or t is Or:
        parts = [truth_table(c, leaf, full, k, env) for c in formula.children]
        conjunction = t is And
    elif t is Quantified:
        parts = [truth_table(formula.body, leaf, full, k, {**(env or {}), **dict(zip(formula.variables, combo))})
                 for combo in product(range(k), repeat=len(formula.variables))]
        conjunction = formula.kind == FORALL
    else:
        raise TypeError(f"not a logic node: {formula!r}")
    return reduce(and_, parts, full) if conjunction else reduce(or_, parts, 0)
