"""First-order equivalence checking.

The negative direction searches finite interpretations, small domains
first, with symmetry pruning on constant assignments, for a model where
exactly one formula holds. For each domain size and constant assignment
both formulas are grounded, each ground atom one propositional variable,
and the block search of the propositional check compares their truth
tables over every choice of relations. The positive direction refutes the
negated biconditional by saturation-based binary resolution with factoring
and subsumption. First-order logic being undecidable, both sides are
budgeted and a resource-bounded Unknown is a possible outcome.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from functools import partial

from ..syntax.nodes import (
    FORALL,
    And,
    Atom,
    LogicNode,
    Not,
    Or,
    Quantified,
    Variable,
    children,
    symbols,
)
from . import prop
from .verdict import EquivalenceVerdict, equivalent, not_equivalent, unknown


@dataclass
class ProverBudget:
    max_clauses: int = 10_000
    max_seconds: float = 10.0
    max_model_domain: int = 4


REFUTED = "refuted"
SATURATED = "saturated"
BUDGET_EXCEEDED = "budget_exceeded"


# ---------------------------------------------------------------------------
# literals and models
#
# Inside the prover a variable is an int, a constant or Skolem constant its
# name and a Skolem function term a (name, args) tuple.

Literal = tuple[bool, str, tuple]  # (positive?, predicate, argument terms)


@dataclass
class FiniteModel:
    domain_size: int
    constants: dict[str, int]
    predicates: dict[str, frozenset[tuple[int, ...]]]


# ---------------------------------------------------------------------------
# closure

def free_variables(formula: LogicNode) -> list[str]:
    """Variables occurring outside every quantifier that binds them, in order."""
    out: list[str] = []
    _collect_free(formula, set(), out)
    return out


def _collect_free(node, bound: set[str], out: list[str]):
    t = type(node)
    if t is Atom:
        for term in node.terms:
            if type(term) is Variable and term.name not in bound and term.name not in out:
                out.append(term.name)
    elif t is Quantified:
        added = [v for v in node.variables if v not in bound]
        bound.update(added)
        _collect_free(node.body, bound, out)
        bound.difference_update(added)
    else:
        for child in children(node):
            _collect_free(child, bound, out)


def universal_closure(formula: LogicNode) -> LogicNode:
    """Prepend a universal quantifier over any stray free variables."""
    stray = free_variables(formula)
    if not stray:
        return formula
    return Quantified(FORALL, tuple(stray), formula)


# ---------------------------------------------------------------------------
# clausification

def clausify(formula: LogicNode) -> list[tuple[Literal, ...]]:
    """Equisatisfiable clause set, each clause its distinct literals in
    order. Skolem symbols are fresh per call and never share a name with a
    constant of the formula."""
    constants = symbols(formula).objects
    skolems = (name for name in map("sk{}".format, itertools.count()) if name not in constants)
    out = []
    for clause in _cnf(universal_closure(formula), True, {}, (), itertools.count(), skolems):
        c = tuple(dict.fromkeys(clause))
        if not _is_tautology(c):
            out.append(c)
    return out


def _cnf(node, positive: bool, env: dict, universals: tuple, variables, skolems) -> list[list]:
    """The clauses of node, negated unless positive, in one walk: negation
    goes to the atoms, each quantified variable is replaced as it is met (a
    universal by a fresh int from variables, an existential by a Skolem
    term over the universals in scope) and disjunctions distribute over
    conjunctions. env maps source variable names to those terms."""
    t = type(node)
    if t is Atom:
        args = tuple([env[a.name] if type(a) is Variable else a.name for a in node.terms])
        return [[(positive, node.predicate, args)]]
    if t is Not:
        return _cnf(node.child, not positive, env, universals, variables, skolems)
    if t is Quantified:
        env = dict(env)
        for name in node.variables:
            if (node.kind == FORALL) == positive:
                env[name] = next(variables)
                universals += (env[name],)
            else:
                env[name] = (next(skolems), universals) if universals else next(skolems)
        return _cnf(node.body, positive, env, universals, variables, skolems)
    if t not in (And, Or):
        raise TypeError(f"not a first-order node: {node!r}")
    parts = [_cnf(c, positive, env, universals, variables, skolems) for c in node.children]
    if (t is And) == positive:
        return [clause for part in parts for clause in part]
    return [list(itertools.chain(*combo)) for combo in itertools.product(*parts)]


def _is_tautology(clause: tuple) -> bool:
    for sign, pred, args in clause:
        if (not sign, pred, args) in clause:
            return True
    return False


# ---------------------------------------------------------------------------
# unification and resolution
#
# A built clause is a tuple of distinct literals with its variables numbered
# 0, 1, ... by first occurrence; the copy of a kept clause renamed apart from
# the given clause maps each variable v to ~v. A literal is plain when every
# argument is a constant, or it has none: a plain literal is ground, renaming
# leaves it as it is, and it unifies with or matches only an equal one.

def _is_plain(args: tuple) -> bool:
    for t in args:
        if type(t) is not str:
            return False
    return True


def _build(lits, subst: dict) -> tuple:
    """Apply subst to lits, keep the first of repeated literals and number
    the variables 0, 1, ... by first occurrence. A plain literal of lits is
    kept as it is."""
    ids: dict = {}

    def term(t):
        while type(t) is int:
            if t not in subst:
                return ids.setdefault(t, len(ids))
            t = subst[t]
        if type(t) is str:
            return t
        return (t[0], tuple([term(a) for a in t[1]]))

    return tuple(dict.fromkeys([
        lit if _is_plain(lit[2]) else (lit[0], lit[1], tuple([term(t) for t in lit[2]]))
        for lit in lits]))


def _renamed(term):
    if type(term) is int:
        return ~term
    if type(term) is str:
        return term
    return (term[0], tuple([_renamed(a) for a in term[1]]))


def _mgu(xs: tuple, ys: tuple, subst: dict) -> bool:
    """Extend subst, which maps variables to terms, in place to a most
    general unifier of the argument tuples xs and ys. On False no unifier
    exists and subst is left half-built."""
    if len(xs) != len(ys):
        return False
    for a, b in zip(xs, ys):
        while type(a) is int and a in subst:
            a = subst[a]
        while type(b) is int and b in subst:
            b = subst[b]
        if a == b:
            continue
        if type(a) is int:
            if type(b) is tuple and _occurs(a, b, subst):
                return False
            subst[a] = b
        elif type(b) is int:
            if type(a) is tuple and _occurs(b, a, subst):
                return False
            subst[b] = a
        elif type(a) is str or type(b) is str or a[0] != b[0] or not _mgu(a[1], b[1], subst):
            return False
    return True


def _occurs(var: int, term: tuple, subst: dict) -> bool:
    """Whether var occurs in the function term under subst."""
    for t in term[1]:
        while type(t) is int and t in subst:
            t = subst[t]
        if t == var or (type(t) is tuple and _occurs(var, t, subst)):
            return True
    return False


def _match(lits: tuple, i: int, d: tuple, subst: dict) -> bool:
    """Whether one extension of subst maps lits[i:] into the clause d, the
    variables of lits binding one way. The bindings a literal makes are
    the last ones in subst's insertion order, so they are popped again
    before that literal is matched elsewhere."""
    if i == len(lits):
        return True
    sign, pred, args = lits[i]
    mark = len(subst)
    for dsign, dpred, dargs in d:
        if dsign == sign and dpred == pred:
            if _match_args(args, dargs, subst) and _match(lits, i + 1, d, subst):
                return True
            while len(subst) > mark:
                subst.popitem()
    return False


def _match_args(xs: tuple, ys: tuple, subst: dict) -> bool:
    """Extend subst so that it maps the argument tuple xs to ys, variables
    binding in xs only. On False subst may hold bindings made on the way."""
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        t = type(x)
        if t is int:
            if x not in subst:
                subst[x] = y
            elif subst[x] != y:
                return False
        elif t is str:
            if x != y:
                return False
        elif type(y) is not tuple or x[0] != y[0] or not _match_args(x[1], y[1], subst):
            return False
    return True


def _kept_subsumes(kept: list, head: tuple) -> bool:
    """Whether a kept clause subsumes the clause that `head` leads, by the
    test `resolution_refute` describes."""
    given, sig, size, plain, _ = head
    for k in kept:
        k_sig = k[1]
        if (k_sig | sig == sig and k[2] <= size and k[3] <= plain
                and (not k[4] or _match(k[4], 0, given, {}))):
            return True
    return False


def resolution_refute(clauses, budget: ProverBudget) -> str:
    """Given-clause saturation over clauses in the form `clausify` returns;
    REFUTED certifies unsatisfiability and SATURATED certifies
    satisfiability.

    Every factor and resolvent is unified and counted when it is
    generated, but queued as (parent, i, kept copy, j, mgu) and built only
    when it leaves the queue: the rest of the parent's literals, then the
    rest of the copy's, under the mgu. The empty resolvent has two unit
    parents. Factors of the given clause are queued before its resolvents,
    which follow the kept clauses in the order they were kept, so the
    search follows the input's order.

    Each predicate has a positive and a negative bit, and a clause's
    signature is the bitmask of its literals' bits. A clause can subsume
    only one whose signature holds its own, a clause resolves only with
    one whose signature meets its complement, and only a clause whose
    signature meets its own complement can be a tautology: pairs failing
    these tests are skipped without unifying anything.

    The head of a clause is the clause, its signature, its length, its
    plain part (the frozenset of its plain literals) and its variable part
    (its other literals, in order); a kept clause carries its head and a
    copy renamed apart with that copy's literals grouped by bit. One clause
    subsumes another, in either direction, when its signature is within the
    other's, it is no longer, its plain part is a subset of the other's and
    its variable part matches into the other clause, one dict holding the
    bindings and giving back the newest as the match backtracks. The pass
    over the kept clauses that resolves them with the given clause first
    drops those the given clause subsumes. Two plain literals resolve when
    their arguments are equal, under the empty mgu, and a plain literal
    unifies with any other by one-way matching. Each test decides what
    unifying or matching every literal pair would, so the given clauses,
    their order and the generated count are unchanged.
    """
    deadline = time.monotonic() + budget.max_seconds
    bit: dict = {}  # predicate -> its positive bit; its negative bit is the next one up
    for clause in clauses:
        for _, pred, _ in clause:
            bit.setdefault(pred, 1 << 2 * len(bit))
    positive = sum(bit.values())  # every positive bit
    kept: list[tuple[tuple, int, int, frozenset, tuple, tuple, dict]] = []
    queue = deque([(clause, 0, None, 0, {}) for clause in clauses])
    generated = len(queue)
    while queue:
        if time.monotonic() > deadline or generated > budget.max_clauses:
            return BUDGET_EXCEEDED
        parent, i, other, j, mgu = queue.popleft()
        if other is not None:  # a resolvent, not an input clause or a factor
            parent = parent[:i] + parent[i + 1:] + other[:j] + other[j + 1:]
        given = _build(parent, mgu)
        if not given:
            return REFUTED
        literals = frozenset(given)
        sig = 0
        for sign, pred, _ in given:
            sig |= bit[pred] if sign else bit[pred] << 1
        if sig & sig >> 1 & positive and not literals.isdisjoint(
                [(not sign, pred, args) for sign, pred, args in given]):
            continue
        size = len(given)
        plain = [_is_plain(args) for _, _, args in given]
        rest = tuple([lit for lit, p in zip(given, plain) if not p])
        plain_part = literals.difference(rest)
        head = (given, sig, size, plain_part, rest)
        if _kept_subsumes(kept, head):
            continue
        renamed = tuple([lit if p else (lit[0], lit[1], tuple([_renamed(t) for t in lit[2]]))
                         for lit, p in zip(given, plain)])
        groups: dict = {}
        for j, ((sign, pred, args), p) in enumerate(zip(renamed, plain)):
            groups.setdefault(bit[pred] if sign else bit[pred] << 1, []).append((j, args, p))
        entry = head + (renamed, groups)
        kept.append(entry)
        if sig.bit_count() < size:
            for i, j in itertools.combinations(range(size), 2):
                mgu = {}
                if (given[i][0] == given[j][0] and given[i][1] == given[j][1]
                        and not (plain[i] and plain[j]) and _mgu(given[i][2], given[j][2], mgu)):
                    generated += 1
                    queue.append((given, i, None, j, mgu))
        wanted = [(i, bit[pred] << 1 if sign else bit[pred], args, p)
                  for i, ((sign, pred, args), p) in enumerate(zip(given, plain))]
        co_sig = (sig & positive) << 1 | sig >> 1 & positive
        subsumed = []
        for k in kept:
            k_sig = k[1]
            if (sig | k_sig == k_sig and size <= k[2] and k is not entry and plain_part <= k[3]
                    and (not rest or _match(rest, 0, k[0], {}))):
                subsumed.append(k)
                continue
            if not co_sig & k_sig:
                continue
            k_renamed, k_groups = k[5], k[6]
            for i, co_bit, args, p in wanted:
                if not co_bit & k_sig:
                    continue
                for j, k_args, k_p in k_groups[co_bit]:
                    mgu = {}
                    if p:
                        unified = args == k_args if k_p else _match_args(k_args, args, mgu)
                    else:
                        unified = _match_args(args, k_args, mgu) if k_p else _mgu(args, k_args, mgu)
                    if not unified:
                        continue
                    generated += 1
                    if size == 1 and k[2] == 1:
                        return REFUTED
                    queue.append((given, i, k_renamed, j, mgu))
        if subsumed:
            kept = [k for k in kept if k not in subsumed]
    return SATURATED


# ---------------------------------------------------------------------------
# finite-model evaluation and search

def eval_in_model(formula: LogicNode, model: FiniteModel) -> bool:
    return _eval_node(formula, model, {})


def _eval_node(node, model: FiniteModel, env: dict[str, int]) -> bool:
    if isinstance(node, Atom):
        args = tuple(_eval_term(t, model, env) for t in node.terms)
        return args in model.predicates.get(node.predicate, frozenset())
    if isinstance(node, Not):
        return not _eval_node(node.child, model, env)
    if isinstance(node, And):
        return all(_eval_node(c, model, env) for c in node.children)
    if isinstance(node, Or):
        return any(_eval_node(c, model, env) for c in node.children)
    if isinstance(node, Quantified):
        domain = range(model.domain_size)
        names = node.variables
        combos = itertools.product(domain, repeat=len(names))
        if node.kind == FORALL:
            return all(
                _eval_node(node.body, model, {**env, **dict(zip(names, combo))})
                for combo in combos
            )
        return any(
            _eval_node(node.body, model, {**env, **dict(zip(names, combo))})
            for combo in combos
        )
    raise TypeError(f"not a first-order node: {node!r}")


def _eval_term(term, model: FiniteModel, env: dict[str, int]) -> int:
    if isinstance(term, Variable) and term.name in env:
        return env[term.name]
    return model.constants[term.name]  # a constant, or a stray free variable taken as one


def _constant_assignments(names: list[str], k: int):
    """Assignments canonical up to domain permutation: each value is at most
    one greater than the maximum used so far."""

    def rec(i: int, max_used: int, acc: list[int]):
        if i == len(names):
            yield dict(zip(names, acc))
            return
        for v in range(min(max_used + 2, k)):
            acc.append(v)
            yield from rec(i + 1, max(max_used, v), acc)
            acc.pop()

    yield from rec(0, -1, [])


def find_countermodel(
    f: LogicNode,
    g: LogicNode,
    budget: ProverBudget,
    domain_sizes=None,
) -> FiniteModel | None:
    """Search small interpretations for one where exactly one formula holds.

    For each domain size and constant assignment, in order, every choice of
    relations is checked at once. Each ground atom (slot, tuple) is one
    propositional variable, the last slot's tuples the lowest, so that row r
    of a truth table is the r-th choice in counting order with the last slot
    varying fastest. Both formulas are grounded and `prop.first_difference`,
    the block search of the propositional check, finds the lowest row where
    their tables differ, the first countermodel, with the clock read before
    each block of rows. A free variable is read as `equivalent_fol` reads
    it, universally closed."""
    f, g = universal_closure(f), universal_closure(g)
    sf, sg = symbols(f), symbols(g)
    # the same name with two arities denotes two relations; mixed-arity
    # tuples coexist safely in one relation set
    pred_slots = sorted({*sf.predicates, *sg.predicates})
    constants = sorted({*sf.objects, *sg.objects})
    if domain_sizes is None:
        domain_sizes = range(1, budget.max_model_domain + 1)
    deadline = time.monotonic() + budget.max_seconds
    for k in domain_sizes:
        spaces = [list(itertools.product(range(k), repeat=arity)) for _, arity in pred_slots]
        offsets, n = {}, 0
        for slot, space in reversed(list(zip(pred_slots, spaces))):
            offsets[slot] = n
            n += len(space)
        for const_map in _constant_assignments(constants, k):
            row = prop.first_difference(n, partial(_grounded_difference, f, g, k, const_map, offsets), deadline)
            if row is not None:
                rels: dict[str, frozenset] = {}
                for (name, arity), space in zip(pred_slots, spaces):
                    bits = row >> offsets[name, arity]
                    chosen = frozenset(tup for idx, tup in enumerate(space) if bits >> idx & 1)
                    rels[name] = rels.get(name, frozenset()) | chosen
                return FiniteModel(k, dict(const_map), rels)
            if time.monotonic() > deadline:
                return None
    return None


def _grounded_difference(f, g, k: int, constants: dict, offsets: dict, columns: list, full: int) -> int:
    """The bits where the truth tables of quantified trees f and g, grounded
    over domain range(k), differ: the atom pred(a1, ..., an) is the column of
    ground atom number offsets[pred, n] + (a1 ... an read as base-k digits)."""

    def leaf(atom: Atom, env: dict) -> int:
        index = 0
        for term in atom.terms:
            index = index * k + (env if type(term) is Variable else constants)[term.name]
        return columns[offsets[atom.predicate, len(atom.terms)] + index]

    return prop.truth_table(f, leaf, full, k, {}) ^ prop.truth_table(g, leaf, full, k, {})


# ---------------------------------------------------------------------------
# the full check

def difference_formula(f: LogicNode, g: LogicNode) -> Or:
    """not(f <-> g) expressed with the core connectives."""
    return Or((And((f, Not(g))), And((Not(f), g))))


def equivalent_fol(
    f: LogicNode, g: LogicNode, budget: ProverBudget | None = None
) -> EquivalenceVerdict:
    budget = budget or ProverBudget()
    f = universal_closure(f)
    g = universal_closure(g)
    if f == g:
        return equivalent()

    quick = min(2, budget.max_model_domain)
    model = find_countermodel(f, g, budget, domain_sizes=range(1, quick + 1))
    if model is not None:
        return not_equivalent(witness=model)

    clauses = clausify(difference_formula(f, g))
    outcome = resolution_refute(clauses, budget)
    if outcome == REFUTED:
        return equivalent()

    model = find_countermodel(f, g, budget, domain_sizes=range(quick + 1, budget.max_model_domain + 1))
    if model is not None:
        return not_equivalent(witness=model)
    if outcome == SATURATED:
        return not_equivalent(
            reason="difference is satisfiable (saturation) but has no model "
            f"within domain size {budget.max_model_domain}"
        )
    return unknown("prover budget exhausted and no countermodel within bound")
