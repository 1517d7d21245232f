"""Operator-count measures over parsed expressions.

An n-ary And/Or with k children counts as k-1 operators so that the
flattened AST and the printed binary form agree. Quantifiers are not
operators. For regexes the total is the number of star nodes; automaton
measures are filled in separately by the regex verifier.
"""

from __future__ import annotations

from .nodes import FORMALISMS, And, ComplexityProfile, FormalExpression, Not, Or, Star, walk


def complexity(expr: FormalExpression, cfg_depth: int | None = None) -> ComplexityProfile:
    if expr.formalism not in FORMALISMS:
        raise ValueError(f"unknown formalism {expr.formalism!r}")
    profile = ComplexityProfile(cfg_depth=cfg_depth)
    stars = 0
    for node in walk(expr.ast):
        t = type(node)
        if t is Not:
            profile.not_count += 1
        elif t is And:
            profile.and_count += len(node.children) - 1
        elif t is Or:
            profile.or_count += len(node.children) - 1
        elif t is Star:
            stars += 1
    profile.operator_total = profile.and_count + profile.or_count + profile.not_count + stars
    return profile
