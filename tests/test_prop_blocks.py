"""The blocked truth-table search of the propositional check.

With the block size cut to 2**3 rows, tables of 4-9 variables span several
blocks. Each witness is compared with brute force over `eval_prop`: within
one block the first differing row in counting order, past one block the
first differing assignment in `itertools.product` order over the sorted
names.
"""

import itertools
import random
import time

from conftest import random_prop
from formaltrip.pipeline.providers import corrupt_expression
from formaltrip.syntax import make_expression
from formaltrip.syntax.nodes import And, Not, Proposition, symbols
from formaltrip.verify import equivalent_prop, eval_prop, prop
from formaltrip.verify.verdict import Status

BLOCK_LIMIT = 3


def brute_force_witness(f, g, limit):
    names = sorted(set(symbols(f).propositions) | set(symbols(g).propositions))
    n = len(names)
    if n <= limit:
        rows = ({name: bool(r >> i & 1) for i, name in enumerate(names)} for r in range(1 << n))
    else:
        rows = (dict(zip(names, values)) for values in itertools.product((False, True), repeat=n))
    return next((row for row in rows if eval_prop(f, row) != eval_prop(g, row)), None)


def _pairs(rng, count):
    for _ in range(count):
        f = random_prop(rng, 4, rng.randint(1, 9))
        twin = rng.randrange(3)
        if twin == 0:
            g = corrupt_expression(make_expression("prop", f), rng).ast
        elif twin == 1:
            g = Not(Not(f))
        else:
            g = random_prop(rng, 4, rng.randint(1, 9))
        yield f, g


def test_blocked_search_matches_brute_force(monkeypatch):
    monkeypatch.setattr(prop, "EXHAUSTIVE_LIMIT", BLOCK_LIMIT)
    seen = set()
    for f, g in _pairs(random.Random(14), 3000):
        verdict = equivalent_prop(f, g)
        expected = brute_force_witness(f, g, BLOCK_LIMIT)
        wide = len(set(symbols(f).propositions) | set(symbols(g).propositions)) > BLOCK_LIMIT
        if expected is None:
            assert verdict.status is Status.EQUIVALENT and verdict.witness is None
        else:
            assert verdict.status is Status.NOT_EQUIVALENT
            assert list(verdict.witness.items()) == list(expected.items())
            assert eval_prop(f, verdict.witness) != eval_prop(g, verdict.witness)
        seen.add((wide, verdict.status))
    assert seen == {(wide, status) for wide in (False, True)
                    for status in (Status.EQUIVALENT, Status.NOT_EQUIVALENT)}


def _chain(n):
    """¬(p0 ∧ ¬(p1 ∧ … ¬(p{n-2} ∧ p{n-1}))): n variables."""
    node = Proposition(f"p{n - 1}")
    for i in range(n - 2, -1, -1):
        node = Not(And((Proposition(f"p{i}"), node)))
    return node


def test_27_variable_chain_against_its_corrupted_twin():
    f = _chain(27)
    g = corrupt_expression(make_expression("prop", f), random.Random(0)).ast
    assert len(set(symbols(f).propositions) | set(symbols(g).propositions)) == 27
    start = time.process_time()
    verdict = equivalent_prop(f, g)
    elapsed = time.process_time() - start
    assert verdict.status is Status.NOT_EQUIVALENT
    assert eval_prop(f, verdict.witness) != eval_prop(g, verdict.witness)
    assert elapsed < 5.0
