"""Propositional equivalence over the union of both variable sets.

Up to 20 variables the truth table is enumerated outright; past that a
complete backtracking search looks for a satisfying assignment of
f XOR g. Either way the check is decisive: no Unknown verdicts.
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
        for bits in range(1 << len(names)):
            a = {name: bool(bits >> i & 1) for i, name in enumerate(names)}
            if eval_prop(f, a) != eval_prop(g, a):
                return not_equivalent(witness=a)
        return equivalent()
    witness = _search_difference(f, g, names, {})
    if witness is not None:
        return not_equivalent(witness=witness)
    return equivalent()


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
