"""Pinned verdicts of the propositional and first-order verifiers.

The first-order table holds clause-set pairs drawn from a generated fol
dataset (seed 3, depth 9, branching 12, three per category): each source
formula against its simplified twin where that differs, and against one
corrupting-oracle edit of it. For each pair it fixes the verdict and the
witness of `equivalent_fol` under a 1,000-clause budget with domain 1, the
outcome of `resolution_refute` on the clausified difference at four clause
budgets, and, where the search ends within 1,000 clauses, the exact clause
budget it needs: one fewer and the search runs out. A change in the order
or the number of clauses that resolution generates moves one of these.

The propositional checks compare every witness with the first differing
row in counting order, found by brute force with `eval_prop`, and pin the
witness of the search used past the truth-table limit. The values were
recorded before the verifiers' internals were rewritten and must not
change with them.
"""

import random

import pytest

from conftest import random_prop
from formaltrip.pipeline.providers import corrupt_expression
from formaltrip.pipeline.runner import witness_payload
from formaltrip.syntax import make_expression, parse_expression, simplify_expression
from formaltrip.syntax.nodes import And, Not, Or, Proposition, symbols
from formaltrip.verify import ProverBudget, clausify, equivalent_fol, equivalent_prop, eval_prop
from formaltrip.verify.fol import (
    BUDGET_EXCEEDED,
    REFUTED,
    SATURATED,
    difference_formula,
    resolution_refute,
)
from formaltrip.verify.prop import EXHAUSTIVE_LIMIT
from formaltrip.verify.verdict import Status

OUTCOME = {"R": REFUTED, "S": SATURATED, "B": BUDGET_EXCEEDED}
CLAUSE_BUDGETS = (30, 100, 400, 1000)

# (left, right, equivalent_fol status, witness payload,
#  resolution outcome per clause budget, least clause budget that decides)
FOL_PINS = [
    ('∃ x1. ∃ x2. pred6(p2)',
     '∃ x1. ∃ x2. ¬pred6(p2)',
     'not_equivalent', {'domain_size': 1, 'constants': {'p2': 0}, 'predicates': {'pred6': []}},
     'SSSS', 0),
    ('∀ x1. pred7(p5, p5)',
     '∀ x1. ¬pred7(p5, p5)',
     'not_equivalent', {'domain_size': 1, 'constants': {'p5': 0}, 'predicates': {'pred7': []}},
     'SSSS', 0),
    ('∃ x1. pred2(p8)',
     '∃ x1. ¬pred2(p8)',
     'not_equivalent', {'domain_size': 1, 'constants': {'p8': 0}, 'predicates': {'pred2': []}},
     'SSSS', 0),
    ('∃ x1. ¬pred8(x1, p12)',
     '∃ x1. ¬¬pred8(x1, p12)',
     'not_equivalent', {'domain_size': 1, 'constants': {'p12': 0}, 'predicates': {'pred8': []}},
     'SSSS', 8),
    ('∀ x1. ¬pred8(x1, p12)',
     '∀ x1. ¬¬pred8(x1, p12)',
     'not_equivalent', {'domain_size': 1, 'constants': {'p12': 0}, 'predicates': {'pred8': []}},
     'SSSS', 8),
    ('∃ x1. ∃ x2. ¬pred5(p5)',
     '∃ x1. ∃ x2. ¬¬pred5(p5)',
     'not_equivalent', {'domain_size': 1, 'constants': {'p5': 0}, 'predicates': {'pred5': []}},
     'SSSS', 0),
    ('∃ x1. (¬pred2(x1) ∨ pred1(x1))',
     '∃ x1. (¬pred2(x1) ∧ pred1(x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {}, 'predicates': {'pred1': [], 'pred2': []}},
     'BSSS', 41),
    ('∀ x1. (pred7(p7, p7) ∨ ¬pred1(x1))',
     '∀ x1. (pred7(p7, p7) ∧ ¬pred1(x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p7': 0}, 'predicates': {'pred1': [], 'pred7': []}},
     'SSSS', 14),
    ('∀ x1. (¬pred7(p7, p4) ∨ pred3(p11, x1))',
     '∀ x1. (¬pred7(p7, p4) ∧ pred3(p11, x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p11': 0, 'p4': 0, 'p7': 0}, 'predicates': {'pred3': [], 'pred7': []}},
     'SSSS', 14),
    ('(¬pred2(p6) ∧ ¬pred6(p5))',
     '(¬pred2(p6) ∨ ¬pred6(p5))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p5': 0, 'p6': 0}, 'predicates': {'pred2': [], 'pred6': [[0]]}},
     'SSSS', 6),
    ('(pred6(p11) ∨ ¬pred5(p1) ∨ pred4(p12, p1))',
     '(pred6(p11) ∧ ¬pred5(p1) ∧ pred4(p12, p1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p11': 0, 'p12': 0}, 'predicates': {'pred4': [], 'pred5': [], 'pred6': []}},
     'SSSS', 9),
    ('∃ x1. (pred5(p1) ∧ pred2(x1) ∧ ¬pred8(x1, x1))',
     '∃ x1. (pred5(p1) ∨ pred2(x1) ∨ ¬pred8(x1, x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0}, 'predicates': {'pred2': [], 'pred5': [], 'pred8': []}},
     'BSSS', 61),
    ('∀ x1. (pred5(p9) ∧ ¬pred3(p4, x1) ∧ ¬pred2(x1))',
     '∀ x1. (pred5(p9) ∨ ¬pred3(p4, x1) ∨ ¬pred2(x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p4': 0, 'p9': 0}, 'predicates': {'pred2': [], 'pred3': [], 'pred5': []}},
     'BSSS', 45),
    ('∀ x1. (pred4(p4, p6) ∧ pred8(p1, p2) ∧ ¬¬pred6(x1))',
     '∀ x1. (pred4(p4, p6) ∧ pred8(p1, p2) ∧ pred6(x1))',
     'equivalent', None,
     'BRRR', 49),
    ('∀ x1. (pred4(p4, p6) ∧ pred8(p1, p2) ∧ ¬¬pred6(x1))',
     '∀ x1. (pred4(p4, p6) ∨ pred8(p1, p2) ∨ ¬¬pred6(x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p2': 0, 'p4': 0, 'p6': 0}, 'predicates': {'pred4': [], 'pred6': [], 'pred8': [[0, 0]]}},
     'SSSS', 16),
    ('∃ x1. (¬pred7(x1, x1) ∨ ¬¬pred6(p2))',
     '∃ x1. (¬pred7(x1, x1) ∨ pred6(p2))',
     'equivalent', None,
     'RRRR', 23),
    ('∃ x1. (¬pred7(x1, x1) ∨ ¬¬pred6(p2))',
     '∃ x1. (¬pred7(x1, x1) ∧ ¬¬pred6(p2))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p2': 0}, 'predicates': {'pred6': [], 'pred7': []}},
     'SSSS', 28),
    ('∀ x1. (pred3(p6, p6) ∧ pred4(x1, p5) ∧ ¬(pred8(p9, x1) ∧ ¬pred4(x1, p10)))',
     '∀ x1. (pred3(p6, p6) ∨ pred4(x1, p5) ∨ ¬(pred8(p9, x1) ∧ ¬pred4(x1, p10)))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p10': 0, 'p5': 0, 'p6': 0, 'p9': 0}, 'predicates': {'pred3': [], 'pred4': [], 'pred8': []}},
     'BBSS', 123),
    ('∀ x1. (pred4(p11, x1) ∨ ¬¬pred2(p3) ∨ ¬pred4(p6, p4))',
     '∀ x1. (pred4(p11, x1) ∨ pred2(p3) ∨ ¬pred4(p6, p4))',
     'equivalent', None,
     'BBRR', 197),
    ('∀ x1. (pred4(p11, x1) ∨ ¬¬pred2(p3) ∨ ¬pred4(p6, p4))',
     '∀ x1. (pred4(p11, x1) ∧ ¬¬pred2(p3) ∧ ¬pred4(p6, p4))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p11': 0, 'p3': 0, 'p4': 0, 'p6': 0}, 'predicates': {'pred2': [], 'pred4': []}},
     'SSSS', 18),
    ('(pred2(p3) ∧ pred7(p4, p5) ∧ ¬(pred1(p6) ∧ ¬pred6(p6)))',
     '(pred2(p3) ∧ pred7(p4, p5) ∧ ¬(pred1(p6) ∨ ¬pred6(p6)))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p3': 0, 'p4': 0, 'p5': 0, 'p6': 0}, 'predicates': {'pred1': [], 'pred2': [[0]], 'pred6': [], 'pred7': [[0, 0]]}},
     'SSSS', 26),
    ('∀ x1. ((¬pred8(p2, p12) ∧ ¬pred4(p5, p8)) ∨ pred4(p5, p12) ∨ pred6(p8) ∨ pred2(p11))',
     '∀ x1. ((¬pred8(p2, p12) ∧ ¬pred4(p5, p8)) ∧ pred4(p5, p12) ∧ pred6(p8) ∧ pred2(p11))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p11': 0, 'p12': 0, 'p2': 0, 'p5': 0, 'p8': 0}, 'predicates': {'pred2': [], 'pred4': [], 'pred6': [], 'pred8': []}},
     'SSSS', 22),
    ('∀ x1. (pred3(p3, x1) ∧ pred5(x1) ∧ ¬(¬pred5(p5) ∧ ¬pred3(p11, x1)))',
     '∀ x1. (pred3(p3, x1) ∨ pred5(x1) ∨ ¬(¬pred5(p5) ∧ ¬pred3(p11, x1)))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p11': 0, 'p3': 0, 'p5': 0}, 'predicates': {'pred3': [], 'pred5': [[0]]}},
     'BBSS', 273),
    ('∀ x1. ((¬pred6(p6) ∧ ¬¬pred4(p6, p12)) ∨ pred2(p4) ∨ pred2(p2))',
     '∀ x1. ((¬pred6(p6) ∧ pred4(p6, p12)) ∨ pred2(p4) ∨ pred2(p2))',
     'equivalent', None,
     'BRRR', 57),
    ('∀ x1. ((¬pred6(p6) ∧ ¬¬pred4(p6, p12)) ∨ pred2(p4) ∨ pred2(p2))',
     '∀ x1. ((¬pred6(p6) ∧ ¬¬pred4(p6, p12)) ∧ pred2(p4) ∧ pred2(p2))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p12': 0, 'p2': 0, 'p4': 0, 'p6': 0}, 'predicates': {'pred2': [], 'pred4': [[0, 0]], 'pred6': []}},
     'SSSS', 17),
    ('∀ x1. ((¬pred3(p8, p6) ∧ ¬pred5(x1)) ∨ pred2(p2) ∨ ¬pred7(x1, p3) ∨ pred8(x1, p12))',
     '∀ x1. ((¬pred3(p8, p6) ∧ ¬pred5(x1)) ∧ pred2(p2) ∧ ¬pred7(x1, p3) ∧ pred8(x1, p12))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p12': 0, 'p2': 0, 'p3': 0, 'p6': 0, 'p8': 0}, 'predicates': {'pred2': [], 'pred3': [], 'pred5': [], 'pred7': [], 'pred8': []}},
     'BSSS', 94),
    ('∀ x1. (pred1(p1) ∨ (pred7(p9, p11) ∧ ¬¬¬pred5(x1)) ∨ ¬(¬pred1(x1) ∧ pred3(x1, p2)))',
     '∀ x1. (pred1(p1) ∨ (pred7(p9, p11) ∧ ¬pred5(x1)) ∨ ¬(¬pred1(x1) ∧ pred3(x1, p2)))',
     'unknown', None,
     'BBBB', None),
    ('∀ x1. (pred1(p1) ∨ (pred7(p9, p11) ∧ ¬¬¬pred5(x1)) ∨ ¬(¬pred1(x1) ∧ pred3(x1, p2)))',
     '∀ x1. (pred1(p1) ∧ (pred7(p9, p11) ∧ ¬¬¬pred5(x1)) ∧ ¬(¬pred1(x1) ∧ pred3(x1, p2)))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p11': 0, 'p2': 0, 'p9': 0}, 'predicates': {'pred1': [], 'pred3': [], 'pred5': [], 'pred7': []}},
     'BBSS', 127),
    ('∀ x1. (pred7(x1, p9) ∨ (pred8(x1, p11) ∧ ¬¬pred5(p1)) ∨ ¬(¬¬pred4(p9, p10) ∧ pred8(p11, p11)))',
     '∀ x1. (pred7(x1, p9) ∨ (pred8(x1, p11) ∧ pred5(p1)) ∨ ¬(pred4(p9, p10) ∧ pred8(p11, p11)))',
     'unknown', None,
     'BBBB', None),
    ('∀ x1. (pred7(x1, p9) ∨ (pred8(x1, p11) ∧ ¬¬pred5(p1)) ∨ ¬(¬¬pred4(p9, p10) ∧ pred8(p11, p11)))',
     '∀ x1. (pred7(x1, p9) ∨ (pred8(x1, p11) ∨ ¬¬pred5(p1)) ∨ ¬(¬¬pred4(p9, p10) ∧ pred8(p11, p11)))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p10': 0, 'p11': 0, 'p9': 0}, 'predicates': {'pred4': [[0, 0]], 'pred5': [], 'pred7': [], 'pred8': [[0, 0]]}},
     'BBBB', None),
    ('∀ x1. (pred1(p8) ∨ (pred8(p3, p2) ∧ ¬¬pred6(p5)) ∨ ¬(¬¬pred7(p6, p2) ∧ pred1(p5)))',
     '∀ x1. (pred1(p8) ∨ (pred8(p3, p2) ∧ pred6(p5)) ∨ ¬(pred7(p6, p2) ∧ pred1(p5)))',
     'equivalent', None,
     'BBRR', 136),
    ('∀ x1. (pred1(p8) ∨ (pred8(p3, p2) ∧ ¬¬pred6(p5)) ∨ ¬(¬¬pred7(p6, p2) ∧ pred1(p5)))',
     '∀ x1. (pred1(p8) ∨ (pred8(p3, p2) ∧ ¬¬pred6(p5)) ∨ ¬(¬¬pred7(p6, p2) ∨ pred1(p5)))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p2': 0, 'p3': 0, 'p5': 0, 'p6': 0, 'p8': 0}, 'predicates': {'pred1': [], 'pred6': [], 'pred7': [[0, 0]], 'pred8': []}},
     'BSSS', 53),
    ('∃ x1. ¬((¬¬pred3(p9, x1) ∧ pred5(p2)) ∨ (¬pred5(p6) ∧ ¬pred7(p4, p11)) ∨ ¬pred6(x1))',
     '∃ x1. ¬((pred3(p9, x1) ∧ pred5(p2)) ∨ (¬pred5(p6) ∧ ¬pred7(p4, p11)) ∨ ¬pred6(x1))',
     'unknown', None,
     'BBBB', None),
    ('∃ x1. ¬((¬¬pred3(p9, x1) ∧ pred5(p2)) ∨ (¬pred5(p6) ∧ ¬pred7(p4, p11)) ∨ ¬pred6(x1))',
     '∃ x1. ¬((¬¬pred3(p9, x1) ∨ pred5(p2)) ∨ (¬pred5(p6) ∧ ¬pred7(p4, p11)) ∨ ¬pred6(x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p11': 0, 'p2': 0, 'p4': 0, 'p6': 0, 'p9': 0}, 'predicates': {'pred3': [], 'pred5': [[0]], 'pred6': [[0]], 'pred7': []}},
     'BBBB', None),
    ('∃ x1. (pred8(x1, x1) ∧ ¬pred1(p10) ∧ ¬pred7(p10, p7) ∧ ¬pred7(p8, p10) ∧ ¬pred1(p7) ∧ pred2(x1) ∧ pred3(p6, x1))',
     '∃ x1. (pred8(x1, x1) ∨ ¬pred1(p10) ∨ ¬pred7(p10, p7) ∨ ¬pred7(p8, p10) ∨ ¬pred1(p7) ∨ pred2(x1) ∨ pred3(p6, x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p10': 0, 'p6': 0, 'p7': 0, 'p8': 0}, 'predicates': {'pred1': [], 'pred2': [], 'pred3': [], 'pred7': [], 'pred8': []}},
     'BSSS', 77),
    ('∀ x1. (pred7(p6, p1) ∨ (pred1(p2) ∧ ¬¬¬pred6(p5)) ∨ ¬(¬¬pred7(p3, p2) ∧ pred6(p3)))',
     '∀ x1. (pred7(p6, p1) ∨ (pred1(p2) ∧ ¬pred6(p5)) ∨ ¬(pred7(p3, p2) ∧ pred6(p3)))',
     'equivalent', None,
     'BBRR', 136),
    ('∀ x1. (pred7(p6, p1) ∨ (pred1(p2) ∧ ¬¬¬pred6(p5)) ∨ ¬(¬¬pred7(p3, p2) ∧ pred6(p3)))',
     '∀ x1. (pred7(p6, p1) ∨ (pred1(p2) ∧ ¬¬¬pred6(p5)) ∨ ¬(¬¬pred7(p3, p2) ∨ pred6(p3)))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p2': 0, 'p3': 0, 'p5': 0, 'p6': 0}, 'predicates': {'pred1': [], 'pred6': [[0]], 'pred7': []}},
     'BSSS', 53),
    ('¬((¬¬¬pred3(p12, p4) ∧ pred4(p11, p8)) ∨ (¬pred5(p11) ∧ ¬pred6(p6)) ∨ ¬pred6(p9))',
     '¬((¬pred3(p12, p4) ∧ pred4(p11, p8)) ∨ (¬pred5(p11) ∧ ¬pred6(p6)) ∨ ¬pred6(p9))',
     'equivalent', None,
     'BBRR', 272),
    ('¬((¬¬¬pred3(p12, p4) ∧ pred4(p11, p8)) ∨ (¬pred5(p11) ∧ ¬pred6(p6)) ∨ ¬pred6(p9))',
     '¬((¬¬¬pred3(p12, p4) ∧ pred4(p11, p8)) ∧ (¬pred5(p11) ∧ ¬pred6(p6)) ∧ ¬pred6(p9))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p11': 0, 'p12': 0, 'p4': 0, 'p6': 0, 'p8': 0, 'p9': 0}, 'predicates': {'pred3': [], 'pred4': [], 'pred5': [], 'pred6': []}},
     'BSSS', 35),
    ('∃ x1. (pred4(p6, x1) ∧ ¬pred4(p6, p12) ∧ ¬pred8(x1, p8) ∧ ¬pred8(p10, p6) ∧ ¬¬pred5(p6) ∧ pred1(p3) ∧ pred2(x1))',
     '∃ x1. (pred4(p6, x1) ∧ ¬pred4(p6, p12) ∧ ¬pred8(x1, p8) ∧ ¬pred8(p10, p6) ∧ pred5(p6) ∧ pred1(p3) ∧ pred2(x1))',
     'unknown', None,
     'BBBB', None),
    ('∃ x1. (pred4(p6, x1) ∧ ¬pred4(p6, p12) ∧ ¬pred8(x1, p8) ∧ ¬pred8(p10, p6) ∧ ¬¬pred5(p6) ∧ pred1(p3) ∧ pred2(x1))',
     '∃ x1. (pred4(p6, x1) ∨ ¬pred4(p6, p12) ∨ ¬pred8(x1, p8) ∨ ¬pred8(p10, p6) ∨ ¬¬pred5(p6) ∨ pred1(p3) ∨ pred2(x1))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p10': 0, 'p12': 0, 'p3': 0, 'p6': 0, 'p8': 0}, 'predicates': {'pred1': [], 'pred2': [], 'pred4': [], 'pred5': [], 'pred8': []}},
     'BSSS', 95),
    ('∃ x1. (pred5(p9) ∧ ¬pred8(p12, p1) ∧ ¬pred1(p4) ∧ ¬¬pred5(p8) ∧ ¬pred5(p10) ∧ pred7(x1, p6) ∧ pred4(p8, p4))',
     '∃ x1. (pred5(p9) ∧ ¬pred8(p12, p1) ∧ ¬pred1(p4) ∧ pred5(p8) ∧ ¬pred5(p10) ∧ pred7(x1, p6) ∧ pred4(p8, p4))',
     'unknown', None,
     'BBBB', None),
    ('∃ x1. (pred5(p9) ∧ ¬pred8(p12, p1) ∧ ¬pred1(p4) ∧ ¬¬pred5(p8) ∧ ¬pred5(p10) ∧ pred7(x1, p6) ∧ pred4(p8, p4))',
     '∃ x1. (pred5(p9) ∨ ¬pred8(p12, p1) ∨ ¬pred1(p4) ∨ ¬¬pred5(p8) ∨ ¬pred5(p10) ∨ pred7(x1, p6) ∨ pred4(p8, p4))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p10': 0, 'p12': 0, 'p4': 0, 'p6': 0, 'p8': 0, 'p9': 0}, 'predicates': {'pred1': [], 'pred4': [], 'pred5': [], 'pred7': [], 'pred8': []}},
     'BSSS', 32),
    ('∀ x1. ((¬pred4(p4, x1) ∧ ¬pred5(p8)) ∨ ¬¬¬pred5(p3) ∨ (pred8(p7, p12) ∧ pred8(p1, p5)) ∨ ¬pred2(p12) ∨ ¬pred7(p12, p7) ∨ pred1(p12))',
     '∀ x1. ((¬pred4(p4, x1) ∧ ¬pred5(p8)) ∨ ¬pred5(p3) ∨ (pred8(p7, p12) ∧ pred8(p1, p5)) ∨ ¬pred2(p12) ∨ ¬pred7(p12, p7) ∨ pred1(p12))',
     'unknown', None,
     'BBBB', None),
    ('∀ x1. ((¬pred4(p4, x1) ∧ ¬pred5(p8)) ∨ ¬¬¬pred5(p3) ∨ (pred8(p7, p12) ∧ pred8(p1, p5)) ∨ ¬pred2(p12) ∨ ¬pred7(p12, p7) ∨ pred1(p12))',
     '∀ x1. ((¬pred4(p4, x1) ∧ ¬pred5(p8)) ∧ ¬¬¬pred5(p3) ∧ (pred8(p7, p12) ∧ pred8(p1, p5)) ∧ ¬pred2(p12) ∧ ¬pred7(p12, p7) ∧ pred1(p12))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p12': 0, 'p3': 0, 'p4': 0, 'p5': 0, 'p7': 0, 'p8': 0}, 'predicates': {'pred1': [], 'pred2': [], 'pred4': [], 'pred5': [], 'pred7': [], 'pred8': []}},
     'BSSS', 98),
    ('∃ x1. (pred8(p11, p1) ∧ pred5(x1) ∧ (¬¬pred6(p4) ∨ (¬pred2(p9) ∧ ¬pred2(p9))) ∧ ¬pred2(p9) ∧ ¬¬pred8(p1, p6) ∧ (¬pred6(p6) ∨ (¬pred7(p3, p5) ∧ pred4(p9, p3))))',
     '∃ x1. (pred8(p11, p1) ∧ pred5(x1) ∧ (pred6(p4) ∨ ¬pred2(p9)) ∧ ¬pred2(p9) ∧ pred8(p1, p6) ∧ (¬pred6(p6) ∨ (¬pred7(p3, p5) ∧ pred4(p9, p3))))',
     'unknown', None,
     'BBBB', None),
    ('∃ x1. (pred8(p11, p1) ∧ pred5(x1) ∧ (¬¬pred6(p4) ∨ (¬pred2(p9) ∧ ¬pred2(p9))) ∧ ¬pred2(p9) ∧ ¬¬pred8(p1, p6) ∧ (¬pred6(p6) ∨ (¬pred7(p3, p5) ∧ pred4(p9, p3))))',
     '∃ x1. (pred8(p11, p1) ∨ pred5(x1) ∨ (¬¬pred6(p4) ∨ (¬pred2(p9) ∧ ¬pred2(p9))) ∨ ¬pred2(p9) ∨ ¬¬pred8(p1, p6) ∨ (¬pred6(p6) ∨ (¬pred7(p3, p5) ∧ pred4(p9, p3))))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p11': 0, 'p3': 0, 'p4': 0, 'p5': 0, 'p6': 0, 'p9': 0}, 'predicates': {'pred2': [], 'pred4': [], 'pred5': [], 'pred6': [], 'pred7': [], 'pred8': []}},
     'BBSS', 179),
    ('∃ x1. (pred6(p4) ∧ pred6(p2) ∧ (¬pred6(p5) ∨ ¬pred4(p1, p9) ∨ ¬pred7(p2, p1)) ∧ ¬pred4(p8, p11) ∧ ¬¬pred6(p12) ∧ (¬pred7(x1, p4) ∨ (pred7(p1, p6) ∧ pred1(p6) ∧ ¬pred6(x1))))',
     '∃ x1. (pred6(p4) ∧ pred6(p2) ∧ (¬pred6(p5) ∨ ¬pred4(p1, p9) ∨ ¬pred7(p2, p1)) ∧ ¬pred4(p8, p11) ∧ pred6(p12) ∧ (¬pred7(x1, p4) ∨ (pred7(p1, p6) ∧ pred1(p6) ∧ ¬pred6(x1))))',
     'unknown', None,
     'BBBB', None),
    ('∃ x1. (pred6(p4) ∧ pred6(p2) ∧ (¬pred6(p5) ∨ ¬pred4(p1, p9) ∨ ¬pred7(p2, p1)) ∧ ¬pred4(p8, p11) ∧ ¬¬pred6(p12) ∧ (¬pred7(x1, p4) ∨ (pred7(p1, p6) ∧ pred1(p6) ∧ ¬pred6(x1))))',
     '∃ x1. (pred6(p4) ∧ pred6(p2) ∧ (¬pred6(p5) ∧ ¬pred4(p1, p9) ∧ ¬pred7(p2, p1)) ∧ ¬pred4(p8, p11) ∧ ¬¬pred6(p12) ∧ (¬pred7(x1, p4) ∨ (pred7(p1, p6) ∧ pred1(p6) ∧ ¬pred6(x1))))',
     'not_equivalent', {'domain_size': 1, 'constants': {'p1': 0, 'p11': 0, 'p12': 0, 'p2': 0, 'p4': 0, 'p5': 0, 'p6': 0, 'p8': 0, 'p9': 0}, 'predicates': {'pred1': [], 'pred4': [], 'pred6': [[0]], 'pred7': []}},
     'BBBB', None),
]

FOL_IDS = [f"pair{i}" for i in range(len(FOL_PINS))]


def _fol_pair(left, right):
    return parse_expression("fol", left).ast, parse_expression("fol", right).ast


@pytest.mark.parametrize("left,right,status,witness,outcomes,needed", FOL_PINS, ids=FOL_IDS)
def test_fol_verdict_pins(left, right, status, witness, outcomes, needed):
    f, g = _fol_pair(left, right)
    verdict = equivalent_fol(f, g, ProverBudget(max_clauses=1000, max_model_domain=1))
    assert verdict.status.value == status
    assert witness_payload(verdict) == witness


@pytest.mark.parametrize("left,right,status,witness,outcomes,needed", FOL_PINS, ids=FOL_IDS)
def test_resolution_outcome_pins(left, right, status, witness, outcomes, needed):
    f, g = _fol_pair(left, right)
    clauses = clausify(difference_formula(f, g))
    got = [resolution_refute(clauses, ProverBudget(max_clauses=n)) for n in CLAUSE_BUDGETS]
    assert got == [OUTCOME[c] for c in outcomes]
    if needed is not None:
        assert resolution_refute(clauses, ProverBudget(max_clauses=needed)) != BUDGET_EXCEEDED
    if needed:
        assert resolution_refute(clauses, ProverBudget(max_clauses=needed - 1)) == BUDGET_EXCEEDED


def test_fol_pins_cover_every_outcome():
    assert {status for _, _, status, *_ in FOL_PINS} == {"equivalent", "not_equivalent", "unknown"}
    assert set("".join(row[4] for row in FOL_PINS)) == set(OUTCOME)


# --- propositional ---------------------------------------------------------

def first_differing_row(f, g):
    """The old truth-table order: row r sets the i-th sorted name to bit i of r."""
    names = sorted(set(symbols(f).propositions) | set(symbols(g).propositions))
    for bits in range(1 << len(names)):
        row = {name: bool(bits >> i & 1) for i, name in enumerate(names)}
        if eval_prop(f, row) != eval_prop(g, row):
            return row
    return None


def _prop_pairs(seed):
    rng = random.Random(seed)
    f = random_prop(rng, max_depth=5, n_vars=rng.randint(1, 12))
    expr = make_expression("prop", f)
    yield f, random_prop(rng, max_depth=5, n_vars=12)
    yield f, simplify_expression(expr).ast
    yield f, corrupt_expression(expr, rng).ast


@pytest.mark.parametrize("seed", range(60))
def test_prop_witness_is_first_differing_row(seed):
    for f, g in _prop_pairs(seed):
        assert len(set(symbols(f).propositions) | set(symbols(g).propositions)) <= 12
        verdict = equivalent_prop(f, g)
        expected = first_differing_row(f, g)
        if expected is None:
            assert verdict.status is Status.EQUIVALENT
            assert verdict.witness is None
        else:
            assert verdict.status is Status.NOT_EQUIVALENT
            assert list(verdict.witness.items()) == list(expected.items())


def _chain():
    """¬(p0 ∨ ¬(p1 ∧ ¬(p2 ∧ ¬(p3 ∨ … ¬(p18 ∨ (p19 ∨ p20)))))): 21 variables."""
    node = Or((Proposition("p19"), Proposition("p20")))
    for i in range(18, -1, -1):
        node = Not((And if i % 3 else Or)((Proposition(f"p{i}"), node)))
    return node


CHAIN_WITNESS = {
    "p0": False, "p1": True, "p10": True, "p11": True, "p12": False,
    "p13": True, "p14": True, "p15": False, "p16": True, "p17": True,
    "p18": False, "p19": False, "p2": True, "p20": True, "p3": False,
    "p4": True, "p5": True, "p6": False, "p7": True, "p8": True, "p9": False,
}


def test_search_witness_past_the_table_limit():
    f = _chain()
    g = corrupt_expression(make_expression("prop", f), random.Random(5)).ast
    assert len(set(symbols(f).propositions) | set(symbols(g).propositions)) == EXHAUSTIVE_LIMIT + 1
    assert make_expression("prop", g).canonical_text.endswith("(p19 ∧ p20))))))))))))))))))))")
    verdict = equivalent_prop(f, g)
    assert verdict.status is Status.NOT_EQUIVALENT
    assert list(verdict.witness.items()) == list(CHAIN_WITNESS.items())
    assert eval_prop(f, verdict.witness) != eval_prop(g, verdict.witness)
