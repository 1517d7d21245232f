"""Propositional equivalence over the union of both variable sets.

Up to 20 variables each side is evaluated once over its whole truth table,
bit-parallel: the table is a Python int whose bit r is the value at row r,
where row r gives the i-th sorted variable the value of bit i of r. The
witness is the lowest row where the two tables differ, which is the first
differing row in counting order. Past 20 variables a complete backtracking
search looks for a satisfying assignment of f XOR g. Either way the check
is decisive: no Unknown verdicts.
"""

from __future__ import annotations

from ..syntax.nodes import And, Not, Or, Proposition, walk
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


def variables(formula) -> set[str]:
    return {node.name for node in walk(formula) if type(node) is Proposition}


def equivalent_prop(f, g) -> EquivalenceVerdict:
    if f == g:
        return equivalent()
    names = sorted(variables(f) | variables(g))
    if len(names) <= EXHAUSTIVE_LIMIT:
        rows = 1 << len(names)
        full = (1 << rows) - 1
        columns = {name: _column(i, rows) for i, name in enumerate(names)}
        diff = _table(f, columns, full) ^ _table(g, columns, full)
        if not diff:
            return equivalent()
        row = (diff & -diff).bit_length() - 1
        return not_equivalent(witness={name: bool(row >> i & 1) for i, name in enumerate(names)})
    witness = _search_difference(f, g, names, {})
    if witness is not None:
        return not_equivalent(witness=witness)
    return equivalent()


def _column(i: int, rows: int) -> int:
    """The truth table of variable i: bit r is set iff bit i of r is."""
    width = 1 << i
    column = ((1 << width) - 1) << width  # one period: width zeros, then width ones
    period = width << 1
    while period < rows:
        column |= column << period
        period <<= 1
    return column


def _table(formula, columns: dict[str, int], full: int) -> int:
    """The truth table of formula over the rows the columns span."""
    t = type(formula)
    if t is Proposition:
        return columns[formula.name]
    if t is Not:
        return full ^ _table(formula.child, columns, full)
    if t is And:
        out = full
        for c in formula.children:
            out &= _table(c, columns, full)
        return out
    if t is Or:
        out = 0
        for c in formula.children:
            out |= _table(c, columns, full)
        return out
    raise TypeError(f"not a propositional node: {formula!r}")


def _search_difference(f, g, names: list[str], partial: Assignment) -> Assignment | None:
    """Complete backtracking search for an assignment where f and g differ."""
    vf = _eval3(f, partial)
    vg = _eval3(g, partial)
    if vf is not None and vg is not None:
        if vf != vg:
            full = dict(partial)
            for name in names:
                full.setdefault(name, False)
            return full
        return None
    for name in names:
        if name not in partial:
            for value in (False, True):
                partial[name] = value
                found = _search_difference(f, g, names, partial)
                if found is not None:
                    return found
            del partial[name]
            return None
    return None  # fully assigned and equal


def _eval3(formula, partial: Assignment) -> bool | None:
    """Three-valued evaluation under a partial assignment."""
    if isinstance(formula, Proposition):
        return partial.get(formula.name)
    if isinstance(formula, Not):
        v = _eval3(formula.child, partial)
        return None if v is None else not v
    if isinstance(formula, And):
        saw_none = False
        for c in formula.children:
            v = _eval3(c, partial)
            if v is False:
                return False
            if v is None:
                saw_none = True
        return None if saw_none else True
    if isinstance(formula, Or):
        saw_none = False
        for c in formula.children:
            v = _eval3(c, partial)
            if v is True:
                return True
            if v is None:
                saw_none = True
        return None if saw_none else False
    raise TypeError(f"not a propositional node: {formula!r}")
