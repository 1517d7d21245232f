"""Binary resolution and subsumption on hand-built clause sets, searches
pinned on simplified twins, and their independence from the interpreter's
string hashing.

Clauses here are written as lists of (positive?, predicate, argument terms)
literals over the terms `clausify` produces: a variable is an int, a
constant its name and a function term a (name, args) tuple.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import formaltrip
from conftest import random_fol
from formaltrip.syntax import make_expression, simplify_expression
from formaltrip.verify.fol import (
    BUDGET_EXCEEDED,
    REFUTED,
    SATURATED,
    ProverBudget,
    _is_plain,
    _kept_subsumes,
    clausify,
    difference_formula,
    resolution_refute,
)
from test_verifier_pins import CLAUSE_BUDGETS, OUTCOME

BUDGET = ProverBudget(max_clauses=1000, max_seconds=30.0)
x, y, u, v = 0, 1, 2, 3
a, b, c = "a", "b", "c"


def f(term):
    return ("f", (term,))


def P(*args):
    return (True, "P", args)


def notP(*args):
    return (False, "P", args)


def Q(*args):
    return (True, "Q", args)


def R(*args):
    return (True, "R", args)


def test_refutation_that_needs_factoring():
    # binary resolution alone only ever yields two-literal clauses here
    clauses = [[P(x), P(y)], [notP(u), notP(v)]]
    assert resolution_refute(clauses, BUDGET) == REFUTED


def test_occurs_check_blocks_the_only_resolvent():
    clauses = [[P(x, x)], [notP(y, f(y))]]
    assert resolution_refute(clauses, BUDGET) == SATURATED


def test_skolem_chain_is_refuted():
    clauses = [[P(x), notP(f(x))], [notP(a)], [P(f(f(a)))]]
    assert resolution_refute(clauses, BUDGET) == REFUTED


def test_tautologous_input_clause_is_skipped():
    # kept, it would resolve with its own copy and overrun a one-clause budget
    tautology = [P(x), notP(x)]
    assert resolution_refute([tautology], ProverBudget(max_clauses=1)) == SATURATED
    clauses = [tautology, [(True, "Q", (a,))]]
    assert resolution_refute(clauses, ProverBudget(max_clauses=2)) == SATURATED


def test_unit_refutation_at_the_exact_budget():
    # two input clauses are generated before the search starts; the empty
    # resolvent is the third and ends the search whatever the budget
    clauses = [[P(a)], [notP(x)]]
    assert resolution_refute(clauses, ProverBudget(max_clauses=2)) == REFUTED
    assert resolution_refute(clauses, ProverBudget(max_clauses=1)) == BUDGET_EXCEEDED


def test_unit_refutation_over_a_zero_arity_atom():
    # a proposition among first-order atoms, as `p1 ∧ pred1(x1)` parses
    assert resolution_refute([[(True, "p1", ())], [(False, "p1", ())]], BUDGET) == REFUTED
    clauses = [[(True, "p1", ()), P(x)], [(False, "p1", ())], [notP(a)]]
    assert resolution_refute(clauses, BUDGET) == REFUTED
    assert resolution_refute([[(True, "p1", ())], [(False, "p1", (a,))]], BUDGET) == SATURATED


# --- subsumption ---------------------------------------------------------------

def subsumes(c, d):
    """Whether clause c subsumes clause d, by the prover's test of a kept
    clause against the given clause. Both heads carry signature 0, which
    passes the signature test, so the rest of the test decides."""

    def head(clause):
        plain = frozenset(lit for lit in clause if _is_plain(lit[2]))
        return (clause, 0, len(clause), plain, tuple(lit for lit in clause if lit not in plain))

    return _kept_subsumes([head(c)], head(d))


def test_a_longer_clause_does_not_subsume_a_shorter_one():
    # x and y both map to a, but two literals cannot subsume one
    assert not subsumes((P(x), P(y)), (P(a),))
    assert subsumes((P(x), P(y)), (P(a), Q(b)))


def test_two_literals_may_map_onto_one():
    assert subsumes((P(x), P(a)), (P(a), Q(b)))


def test_a_shared_variable_binds_once():
    assert not subsumes((P(x), Q(x)), (P(a), Q(b)))
    assert subsumes((P(x), Q(x)), (P(a), Q(b), Q(a)))


def test_a_ground_part_and_a_variable_part():
    assert subsumes((P(a), Q(x)), (Q(b), P(a), R(c)))
    assert not subsumes((P(a), Q(x)), (Q(b), P(b), R(c)))
    assert subsumes((P(a), Q(b)), (Q(b), P(a), R(c)))
    assert not subsumes((P(a), Q(a)), (Q(b), P(a), R(c)))


def test_function_terms_match_one_way():
    assert subsumes((P(f(x)),), (P(f(f(a))),))
    assert not subsumes((P(f(f(a))),), (P(f(x)),))
    assert not subsumes((P(x, f(x)),), (P(a, f(b)),))


# Each pair above, searched with one clause ¬L ∨ S(args) per literal L of
# the second clause, which saturates: first with the general clause before
# the special one, so that the kept general clause meets the special one as
# the given clause, then the other way round. Whether the first subsumes the
# second changes how many clauses the search generates; the counts were
# recorded before the prover's subsumption tests were rewritten.
SUBSUMPTION_SEARCHES = [
    ((P(x), P(y)), (P(a),), 8, 8),
    ((P(x), P(a)), (P(a), Q(b)), 9, 9),
    ((P(x), Q(x)), (P(a), Q(b)), 10, 10),
    ((P(a), Q(x)), (Q(b), P(a), R(c)), 9, 9),
    ((P(f(x)),), (P(f(f(a))),), 4, 4),
    ((P(x, f(x)),), (P(a, f(b)),), 4, 4),
]


@pytest.mark.parametrize("general,special,general_first,special_first", SUBSUMPTION_SEARCHES)
def test_subsumption_inside_the_search(general, special, general_first, special_first):
    sides = [[(not sign, pred, args), (True, "S", args)] for sign, pred, args in special]
    for clauses, needed in (([general, special, *sides], general_first),
                            ([special, general, *sides], special_first)):
        assert resolution_refute(clauses, ProverBudget(max_clauses=needed)) == SATURATED
        assert resolution_refute(clauses, ProverBudget(max_clauses=needed - 1)) == BUDGET_EXCEEDED


# --- simplified twins ------------------------------------------------------------

# Seeded random formulas against their `simplify_expression` twins: the
# pairs that `judge --balance` confirms, and the ones that most often use
# up a clause budget. Each row: the canonical text of the drawn formula,
# the outcome per clause budget in CLAUSE_BUDGETS and the least clause
# budget that decides the search, recorded before the prover's clause
# tests were rewritten.
TWIN_SEED, TWIN_DEPTH = 7, 3
TWIN_PINS = [
    ('∀ x1. ∃ x2. (pred1(x1, x1) ∨ (pred2(p2) ∨ (pred2(x1) ∧ pred1(x2, p2))))',
     'BBBB', None),
    ('∃ x1. ∃ x2. ¬¬(pred1(p1) ∧ pred2(x2))',
     'BRRR', 42),
    ('((¬pred1(p1, p1) ∧ pred1(p1, p2)) ∧ ¬pred1(p1, p2))',
     'RRRR', 7),
    ('∃ x1. ∃ x2. ((pred1(p2) ∧ (pred1(p1) ∨ pred2(x1))) ∧ (¬pred2(p1) ∧ pred1(p2)))',
     'BBRR', 396),
    ('∃ x1. ((pred1(x1) ∧ pred2(p1, x1)) ∨ ¬¬pred2(p1, x1))',
     'BRRR', 70),
    ('∃ x1. ((pred1(x1) ∨ ¬pred2(p2, x1)) ∨ pred1(p1))',
     'BBRR', 122),
    ('∃ x1. (((pred2(p1) ∨ pred1(p1)) ∨ ¬pred1(p1)) ∧ pred2(p1))',
     'RRRR', 8),
    ('∀ x1. ¬¬pred2(p2, x1)',
     'RRRR', 13),
    ('∀ x1. (((pred1(x1, x1) ∧ pred2(p1, p1)) ∨ ¬pred1(x1, x1)) ∨ ((pred1(x1, p1) ∧ pred2(x1, p2)) ∧ ¬pred2(x1, x1)))',
     'BBBB', None),
    ('∀ x1. (((pred1(p2) ∧ pred2(p2)) ∨ (pred1(p2) ∧ pred1(p1))) ∨ (¬pred1(x1) ∧ ¬pred1(p2)))',
     'BBBR', 506),
    ('∀ x1. ¬¬(pred1(p1) ∨ pred2(x1))',
     'RRRR', 29),
    ('∀ x1. ((pred2(p1) ∧ pred1(x1)) ∧ ¬pred1(x1))',
     'RRRR', 17),
    ('¬((pred2(p1, p2) ∧ pred2(p2, p1)) ∨ (pred2(p1, p1) ∨ pred1(p2, p1)))',
     'BRRR', 52),
    ('((pred2(p1) ∨ pred2(p1)) ∧ pred1(p1))',
     'RRRR', 8),
    ('((pred1(p2, p1) ∨ pred1(p2, p1)) ∨ pred1(p2, p2))',
     'RRRR', 9),
    ('((pred1(p2, p1) ∨ pred1(p2, p1)) ∧ ¬pred2(p1))',
     'RRRR', 8),
    ('∀ x1. ∃ x2. (pred2(x2, x2) ∧ (pred2(x2, x1) ∧ ¬pred2(x1, p2)))',
     'BBBR', 522),
    ('¬((pred2(p2) ∧ pred2(p1)) ∧ ¬pred1(p2))',
     'RRRR', 19),
    ('∀ x1. ∀ x2. (pred1(x1, x1) ∨ ((pred1(p1, p2) ∧ pred1(x2, x2)) ∧ pred1(x1, p1)))',
     'BBRR', 269),
    ('∀ x1. ∀ x2. ¬¬pred2(p1, x2)',
     'RRRR', 13),
    ('∀ x1. ∀ x2. ((pred1(x2) ∨ ¬pred2(p2, p1)) ∧ ((pred1(p2) ∧ pred2(x1, x1)) ∧ (pred2(x2, p1) ∨ pred1(x1))))',
     'BBBB', None),
    ('∀ x1. (¬¬pred2(p1) ∨ ¬¬pred2(p1))',
     'RRRR', 3),
    ('∃ x1. ∀ x2. (((pred1(x2, x2) ∨ pred1(x2, x2)) ∨ (pred1(p2, x1) ∧ pred2(x1, p1))) ∨ pred1(x2, p1))',
     'BBBB', None),
    ('∃ x1. (pred1(x1, x1) ∧ ((pred2(p2) ∨ pred2(p1)) ∧ pred1(x1, p1)))',
     'BBBB', None),
]


def twin_pairs():
    """The first len(TWIN_PINS) formulas drawn from random_fol that
    simplify_expression changes, each with its twin."""
    rng = random.Random(TWIN_SEED)
    pairs = []
    while len(pairs) < len(TWIN_PINS):
        source = make_expression("fol", random_fol(rng, TWIN_DEPTH))
        twin = simplify_expression(source)
        if twin.ast != source.ast:
            pairs.append((source, twin))
    return pairs


TWINS = twin_pairs()


@pytest.mark.parametrize("index", range(len(TWIN_PINS)), ids=[f"twin{i}" for i in range(len(TWIN_PINS))])
def test_twin_outcome_pins(index):
    text, outcomes, needed = TWIN_PINS[index]
    source, twin = TWINS[index]
    assert source.canonical_text == text
    clauses = clausify(difference_formula(source.ast, twin.ast))
    got = [resolution_refute(clauses, ProverBudget(max_clauses=n)) for n in CLAUSE_BUDGETS]
    assert got == [OUTCOME[c] for c in outcomes]
    if needed is not None:
        assert resolution_refute(clauses, ProverBudget(max_clauses=needed)) != BUDGET_EXCEEDED
        assert resolution_refute(clauses, ProverBudget(max_clauses=needed - 1)) == BUDGET_EXCEEDED


def test_twin_pins_cover_every_outcome():
    assert set("".join(row[1] for row in TWIN_PINS)) == set("RB")
    assert any(row[2] is None for row in TWIN_PINS)


# --- independence from PYTHONHASHSEED ----------------------------------------

# For each pinned pair and each twin: the clausified difference, the
# outcome under a 1,000-clause budget and the least budget that decides it. An outcome only
# changes once, from budget_exceeded to decided, as the budget grows, so a
# bisection finds that budget exactly; a sweep of budgets would only bound it.
_PRINT_SEARCHES = """
from test_resolution import TWINS
from test_verifier_pins import FOL_PINS, _fol_pair
from formaltrip.verify.fol import (
    BUDGET_EXCEEDED, ProverBudget, clausify, difference_formula, resolution_refute)

pairs = [_fol_pair(left, right) for left, right, *_ in FOL_PINS]
for f, g in pairs + [(source.ast, twin.ast) for source, twin in TWINS]:
    clauses = clausify(difference_formula(f, g))
    print([list(clause) for clause in clauses])
    outcome = resolution_refute(clauses, ProverBudget(max_clauses=1000))
    lo, hi = 0, 1000
    while outcome != BUDGET_EXCEEDED and hi - lo > 1:
        mid = (lo + hi) // 2
        if resolution_refute(clauses, ProverBudget(max_clauses=mid)) == BUDGET_EXCEEDED:
            lo = mid
        else:
            hi = mid
    print(outcome, hi)
"""


def test_search_does_not_depend_on_the_hash_seed():
    # the source checkout's package directory, and this directory for the pins
    src = str(Path(formaltrip.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _PRINT_SEARCHES],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("0", "1")
    ]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
