"""Metamorphic soundness corpus for the logic verifiers (Chen, Cheung & Yiu,
1998): a rewrite that keeps equivalence must never be answered
not_equivalent, and one negated atom must be answered with a witness that
tells the two sides apart.

Each seeded `conftest` formula gets one seeded rewrite, its kind drawn
first among those that apply and then its site: `¬¬` inserted above a node,
De Morgan at a Not over an And or Or, an And's or Or's children reversed,
a bound variable renamed to a fresh name, or `¬∀x.φ` turned into `∃x.¬φ`
(and `¬∃x.φ` into `∀x.¬φ`). Half the FOL formulas are negated at the root
so that the last rewrite has a site.
"""

import itertools
import random
from collections import Counter

from conftest import random_fol, random_prop
from formaltrip.syntax.nodes import (
    EXISTS,
    FORALL,
    And,
    Atom,
    Not,
    Or,
    Proposition,
    Quantified,
    Variable,
    children,
    rebuild,
    symbols,
)
from formaltrip.verify import (
    FiniteModel,
    ProverBudget,
    eval_in_model,
    eval_prop,
    universal_closure,
    verify_pair,
)
from formaltrip.verify.verdict import Status

FOL_BUDGET = ProverBudget(max_clauses=1000, max_model_domain=2)


def sites(node, path=()):
    """(path, node) for `node` and every node below it, in pre-order."""
    yield path, node
    for i, child in enumerate(children(node)):
        yield from sites(child, path + (i,))


def replace(node, path, new):
    if not path:
        return new
    kids = list(children(node))
    kids[path[0]] = replace(kids[path[0]], path[1:], new)
    return rebuild(node, kids)


def renamed(node, old: str, new: str):
    """`node` with its free occurrences of the variable `old` named `new`."""
    t = type(node)
    if t is Atom:
        return Atom(node.predicate, tuple(Variable(new) if type(a) is Variable and a.name == old else a
                                          for a in node.terms))
    if t is Quantified and old in node.variables:
        return node
    return rebuild(node, [renamed(c, old, new) for c in children(node)])


def double_negation(node):
    return Not(Not(node))


def de_morgan(node):
    if type(node) is Not and type(node.child) in (And, Or):
        dual = Or if type(node.child) is And else And
        return dual(tuple(Not(c) for c in node.child.children))
    return None


def reverse_children(node):
    if type(node) in (And, Or):
        return type(node)(node.children[::-1])
    return None


def rename_bound(node):
    """The first variable of a quantifier block renamed to a fresh name."""
    if type(node) is not Quantified:
        return None
    old = node.variables[0]
    new = f"fresh{len(symbols(node).variables)}"
    variables = tuple(new if v == old else v for v in node.variables)
    return Quantified(node.kind, variables, renamed(node.body, old, new))


def push_negation(node):
    if type(node) is Not and type(node.child) is Quantified:
        q = node.child
        return Quantified(EXISTS if q.kind == FORALL else FORALL, q.variables, Not(q.body))
    return None


REWRITES = (double_negation, de_morgan, reverse_children, rename_bound, push_negation)


def rewrite(formula, rng):
    """One equivalence-keeping rewrite of formula, and its name."""
    applicable = {}
    for path, node in sites(formula):
        for rule in REWRITES:
            new = rule(node)
            if new is not None:
                applicable.setdefault(rule, []).append((path, new))
    rule = rng.choice([r for r in REWRITES if r in applicable])
    path, new = rng.choice(applicable[rule])
    return replace(formula, path, new), rule.__name__


def negate_one_atom(formula, rng):
    path, atom = rng.choice([(p, n) for p, n in sites(formula) if type(n) in (Proposition, Atom)])
    return replace(formula, path, Not(atom))


def prop_corpus(n=300):
    rng = random.Random(1998)
    return [(f, *rewrite(f, rng)) for f in (random_prop(rng, 4) for _ in range(n))]


def fol_corpus(n=200):
    rng = random.Random(1998)
    out = []
    for _ in range(n):
        f = random_fol(rng, 3)
        if rng.random() < 0.5:
            f = Not(f)
        out.append((f, *rewrite(f, rng)))
    return out


def truth_table_equivalent(f, g) -> bool:
    names = sorted({*symbols(f).propositions, *symbols(g).propositions})
    for values in itertools.product((False, True), repeat=len(names)):
        row = dict(zip(names, values))
        if eval_prop(f, row) != eval_prop(g, row):
            return False
    return True


def random_model(rng, f, g) -> FiniteModel:
    sf, sg = symbols(f), symbols(g)
    k = rng.randint(1, 3)
    predicates = {}
    for name, arity in {*sf.predicates, *sg.predicates}:
        chosen = {t for t in itertools.product(range(k), repeat=arity) if rng.random() < 0.5}
        predicates[name] = frozenset(chosen) | predicates.get(name, frozenset())
    return FiniteModel(k, {c: rng.randrange(k) for c in {*sf.objects, *sg.objects}}, predicates)


def test_prop_rewrites_are_always_equivalent():
    used = Counter()
    for f, g, rule in prop_corpus():
        used[rule] += 1
        assert verify_pair("prop", f, g).status is Status.EQUIVALENT, (rule, f, g)
    assert set(used) == {"double_negation", "de_morgan", "reverse_children"}


def test_fol_rewrites_are_never_not_equivalent():
    """At `ProverBudget(max_clauses=1000, max_model_domain=2)` the 200
    rewritten pairs get 185 equivalent verdicts, a decided share of 92.5%,
    and 15 unknown ones (7 renamed, 5 reversed, 2 De Morgan, 1 `¬¬`): there
    resolution runs out of clauses before it refutes the difference."""
    used, statuses = Counter(), Counter()
    for f, g, rule in fol_corpus():
        used[rule] += 1
        status = verify_pair("fol", f, g, budget=FOL_BUDGET).status
        statuses[status.value] += 1
        assert status is not Status.NOT_EQUIVALENT, (rule, f, g)
    assert set(used) == {rule.__name__ for rule in REWRITES}
    assert statuses == {"equivalent": 185, "unknown": 15}


def test_a_negated_atom_is_answered_soundly_in_prop():
    answers, rng = Counter(), random.Random(5)
    for f, g, _ in prop_corpus():
        h = negate_one_atom(g, rng)
        verdict = verify_pair("prop", f, h)
        answers[verdict.status.value] += 1
        if verdict.status is Status.NOT_EQUIVALENT:
            assert eval_prop(f, verdict.witness) != eval_prop(h, verdict.witness), (f, h)
        else:
            assert verdict.status is Status.EQUIVALENT
            assert truth_table_equivalent(f, h), (f, h)
    assert answers["not_equivalent"] > 0 and answers["equivalent"] > 0


def test_a_negated_atom_is_answered_soundly_in_fol():
    answers, rng, models = Counter(), random.Random(5), random.Random(7)
    for f, g, _ in fol_corpus():
        h = negate_one_atom(g, rng)
        verdict = verify_pair("fol", f, h, budget=FOL_BUDGET)
        answers[verdict.status.value, verdict.witness is not None] += 1
        left, right = universal_closure(f), universal_closure(h)
        if verdict.status is Status.NOT_EQUIVALENT and verdict.witness is not None:
            assert eval_in_model(left, verdict.witness) != eval_in_model(right, verdict.witness), (f, h)
        elif verdict.status is Status.EQUIVALENT:
            for _ in range(20):
                model = random_model(models, left, right)
                assert eval_in_model(left, model) == eval_in_model(right, model), (f, h, model)
    assert answers["not_equivalent", True] > 0
