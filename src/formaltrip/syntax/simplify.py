"""Equivalence-preserving structural simplification.

Used to mint positive judge pairs: a simplified twin that is textually
different but provably equivalent (double negations dropped, duplicate
conjuncts/disjuncts removed, star-of-star collapsed). The caller is
expected to confirm equivalence with the matching verifier.

The tree is simplified bottom-up, so every child of a node is already
simplified: an And or Or child holds no child of its own kind, and
splicing it into a parent of that kind takes one level.
"""

from __future__ import annotations

from .nodes import And, FormalExpression, Not, Or, Star, children, rebuild
from .printer import make_expression


def simplify_expression(expr: FormalExpression) -> FormalExpression:
    return make_expression(expr.formalism, _simplify(expr.ast))


def _simplify(node):
    kids = [_simplify(c) for c in children(node)]
    if not kids:
        return node
    t = type(node)
    if t is Not and type(kids[0]) is Not:
        return kids[0].child  # ¬¬a is a
    if t is Star and type(kids[0]) is Star:
        return kids[0]  # (a*)* is a*
    if t is And or t is Or:
        # list membership, not a set: frozen dataclasses rehash whole subtrees
        unique = []
        for c in kids:
            if c not in unique:
                unique.append(c)
        if len(unique) == 1:
            return unique[0]
        return t(tuple([g for c in unique for g in (c.children if type(c) is t else (c,))]))
    return rebuild(node, kids)
