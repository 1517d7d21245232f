"""Binary resolution on hand-built clause sets, and its independence from
the interpreter's string hashing.

Clauses here are written as lists of (positive?, predicate, argument terms)
literals over the terms `clausify` produces: a variable is an int, a
constant its name and a function term a (name, args) tuple.
"""

import os
import subprocess
import sys
from pathlib import Path

import formaltrip
from formaltrip.verify.fol import (
    BUDGET_EXCEEDED,
    REFUTED,
    SATURATED,
    ProverBudget,
    resolution_refute,
)

BUDGET = ProverBudget(max_clauses=1000, max_seconds=30.0)
x, y, u, v = 0, 1, 2, 3
a = "a"


def f(term):
    return ("f", (term,))


def P(*args):
    return (True, "P", args)


def notP(*args):
    return (False, "P", args)


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


# --- independence from PYTHONHASHSEED ----------------------------------------

# For each pinned pair: the clausified difference, the outcome under a
# 1,000-clause budget and the least budget that decides it. An outcome only
# changes once, from budget_exceeded to decided, as the budget grows, so a
# bisection finds that budget exactly; a sweep of budgets would only bound it.
_PRINT_SEARCHES = """
from test_verifier_pins import FOL_PINS, _fol_pair
from formaltrip.verify.fol import (
    BUDGET_EXCEEDED, ProverBudget, clausify, difference_formula, resolution_refute)

for left, right, *_ in FOL_PINS:
    clauses = clausify(difference_formula(*_fol_pair(left, right)))
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
