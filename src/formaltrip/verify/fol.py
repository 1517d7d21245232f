"""First-order equivalence checking.

The negative direction enumerates finite interpretations (small domains
first, with symmetry pruning on constant assignments) looking for a model
where exactly one formula holds. The positive direction refutes the
negated biconditional by saturation-based binary resolution with
factoring and subsumption. First-order logic being undecidable, both
sides are budgeted and a resource-bounded Unknown is a possible outcome.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass

from ..syntax.nodes import (
    EXISTS,
    FORALL,
    And,
    Atom,
    Constant,
    FolFormula,
    Not,
    Or,
    Quantified,
    Variable,
    children,
    walk,
)
from ..syntax.printer import print_fol
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
# terms, literals, clauses

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple


Literal = tuple[bool, str, tuple]  # (positive?, predicate, argument terms)
Clause = frozenset  # of Literal


@dataclass
class FiniteModel:
    domain_size: int
    constants: dict[str, int]
    predicates: dict[str, frozenset[tuple[int, ...]]]


# ---------------------------------------------------------------------------
# closure and symbol collection

def free_variables(formula: FolFormula) -> list[str]:
    """Variables occurring in the matrix but not bound anywhere, in order."""
    bound = set()
    for _, names in formula.prefix:
        bound.update(names)
    out: list[str] = []
    _collect_free(formula.matrix, bound, out)
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


def universal_closure(formula: FolFormula) -> FolFormula:
    """Prepend a universal quantifier over any stray free variables."""
    stray = free_variables(formula)
    if not stray:
        return formula
    return FolFormula(((FORALL, tuple(stray)),) + formula.prefix, formula.matrix)


def collect_symbols(formula: FolFormula):
    """(constants, predicate arities) used by the formula."""
    constants: set[str] = set()
    predicates: dict[str, int] = {}
    for node in walk(formula.matrix):
        if type(node) is Atom:
            predicates[node.predicate] = len(node.terms)
            constants.update(t.name for t in node.terms if type(t) is Constant)
    return constants, predicates


def as_quantified_tree(formula: FolFormula):
    """Fold the prefix back into the matrix as nested Quantified nodes."""
    node = formula.matrix
    for kind, names in reversed(formula.prefix):
        node = Quantified(kind, names, node)
    return node


# ---------------------------------------------------------------------------
# clausification: NNF -> standardize apart -> skolemize -> distribute

class _Gensym:
    def __init__(self, prefix: str):
        self.prefix = prefix
        self.n = 0

    def __call__(self) -> str:
        self.n += 1
        return f"{self.prefix}{self.n - 1}"


def clausify(formula: FolFormula) -> list[Clause]:
    """Equisatisfiable clause set; Skolem symbols are fresh per call."""
    tree = _nnf(as_quantified_tree(universal_closure(formula)), positive=True)
    fresh_var = _Gensym("v")
    fresh_sk = _Gensym("sk")
    matrix = _skolemize(tree, {}, (), fresh_var, fresh_sk)
    clauses = _distribute(matrix)
    out = []
    for clause in clauses:
        c = frozenset(clause)
        if not _is_tautology(c):
            out.append(c)
    return out


def _nnf(node, positive: bool):
    if isinstance(node, Atom):
        return node if positive else Not(node)
    if isinstance(node, Not):
        return _nnf(node.child, not positive)
    if isinstance(node, And):
        children = tuple(_nnf(c, positive) for c in node.children)
        return And(children) if positive else Or(children)
    if isinstance(node, Or):
        children = tuple(_nnf(c, positive) for c in node.children)
        return Or(children) if positive else And(children)
    if isinstance(node, Quantified):
        kind = node.kind
        if not positive:
            kind = EXISTS if kind == FORALL else FORALL
        return Quantified(kind, node.variables, _nnf(node.body, positive))
    raise TypeError(f"not a first-order node: {node!r}")


def _skolemize(node, env: dict[str, object], universals: tuple, fresh_var, fresh_sk):
    """Drop quantifiers from an NNF tree, producing a quantifier-free matrix.

    env maps source variable names to terms (renamed Var or Skolem term);
    universals tracks governing universal variables for Skolem functions.
    """
    if isinstance(node, Atom):
        terms = tuple(_subst_term(t, env) for t in node.terms)
        return Atom(node.predicate, terms)
    if isinstance(node, Not):
        return Not(_skolemize(node.child, env, universals, fresh_var, fresh_sk))
    if isinstance(node, (And, Or)):
        children = tuple(
            _skolemize(c, env, universals, fresh_var, fresh_sk) for c in node.children
        )
        return And(children) if isinstance(node, And) else Or(children)
    if isinstance(node, Quantified):
        env = dict(env)
        if node.kind == FORALL:
            for name in node.variables:
                v = Var(fresh_var())
                env[name] = v
                universals = universals + (v,)
        else:
            for name in node.variables:
                sk_name = fresh_sk()
                env[name] = Func(sk_name, universals) if universals else Const(sk_name)
        return _skolemize(node.body, env, universals, fresh_var, fresh_sk)
    raise TypeError(f"not a first-order node: {node!r}")


def _subst_term(term, env):
    if isinstance(term, Variable):
        # unbound variables cannot appear after universal closure
        return env[term.name]
    if isinstance(term, Constant):
        return Const(term.name)
    raise TypeError(f"not a term: {term!r}")


def _distribute(node) -> list[list[Literal]]:
    if isinstance(node, Atom):
        return [[(True, node.predicate, node.terms)]]
    if isinstance(node, Not):
        inner = node.child
        return [[(False, inner.predicate, inner.terms)]]
    if isinstance(node, And):
        out: list[list[Literal]] = []
        for c in node.children:
            out.extend(_distribute(c))
        return out
    if isinstance(node, Or):
        parts = [_distribute(c) for c in node.children]
        out = []
        for combo in itertools.product(*parts):
            merged: list[Literal] = []
            for clause in combo:
                merged.extend(clause)
            out.append(merged)
        return out
    raise TypeError(f"unexpected node in matrix: {node!r}")


def _is_tautology(clause: Clause) -> bool:
    for sign, pred, args in clause:
        if (not sign, pred, args) in clause:
            return True
    return False


# ---------------------------------------------------------------------------
# unification and resolution

def _unify(a, b, subst: dict) -> bool:
    """Extend subst, which maps variable names to terms, in place to a most
    general unifier of a and b. On False no unifier exists and subst is
    left half-built."""
    a = _walk(a, subst)
    b = _walk(b, subst)
    ta = type(a)
    tb = type(b)
    if ta is Var:
        if tb is Var and a.name == b.name:
            return True
        if _occurs(a.name, b, subst):
            return False
        subst[a.name] = b
        return True
    if tb is Var:
        if _occurs(b.name, a, subst):
            return False
        subst[b.name] = a
        return True
    if ta is Const:
        return tb is Const and a.name == b.name
    return tb is Func and a.name == b.name and _unify_tuples(a.args, b.args, subst)


def _walk(term, subst):
    while type(term) is Var:
        bound = subst.get(term.name)
        if bound is None:
            return term
        term = bound
    return term


def _occurs(name: str, term, subst) -> bool:
    term = _walk(term, subst)
    if type(term) is Var:
        return term.name == name
    if type(term) is Func:
        return any(_occurs(name, t, subst) for t in term.args)
    return False


def _unify_tuples(xs: tuple, ys: tuple, subst: dict) -> bool:
    if len(xs) != len(ys):
        return False
    for x, y in zip(xs, ys):
        if not _unify(x, y, subst):
            return False
    return True


def _apply(term, subst):
    term = _walk(term, subst)
    if type(term) is Func:
        return Func(term.name, tuple([_apply(t, subst) for t in term.args]))
    return term


def _apply_clause(clause, subst) -> Clause:
    # The search follows each clause's iteration order, which depends on the
    # order its literals were inserted. Both branches insert them in the
    # order of `clause`, so skipping the rebuild keeps the search the same.
    if not subst:
        return frozenset(iter(clause))
    return frozenset([
        (sign, pred, tuple([t if type(t) is Const else _apply(t, subst) for t in args]))
        for sign, pred, args in clause
    ])


def _rename_clause(clause: Clause, suffix: str) -> Clause:
    def ren(term):
        if type(term) is Var:
            return Var(term.name + suffix)
        if type(term) is Func:
            return Func(term.name, tuple(ren(t) for t in term.args))
        return term

    return frozenset(
        (sign, pred, tuple(ren(t) for t in args)) for sign, pred, args in clause
    )


def _signature(clause: Clause) -> frozenset:
    """The (sign, predicate) pairs of a clause's literals."""
    return frozenset([lit[:2] for lit in clause])


def _by_signature(clause: Clause) -> dict:
    """The literals of a clause grouped by (sign, predicate), each group in
    the clause's iteration order."""
    groups: dict = {}
    for lit in clause:
        groups.setdefault(lit[:2], []).append(lit)
    return groups


def _resolvents(c1: Clause, c2: Clause, c2_groups: dict):
    """All binary resolvents of c1 against c2, a copy renamed apart from it
    whose literals `_by_signature` grouped, in the order of c1's literals
    and then of c2's."""
    for lit1 in c1:
        sign1, pred1, args1 = lit1
        for lit2 in c2_groups.get((not sign1, pred1), ()):
            subst: dict = {}
            if _unify_tuples(args1, lit2[2], subst):
                yield _apply_clause((c1 - {lit1}) | (c2 - {lit2}), subst)


def _factors(clause: Clause):
    lits = sorted(clause, key=repr)
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            s1, p1, a1 = lits[i]
            s2, p2, a2 = lits[j]
            if s1 != s2 or p1 != p2:
                continue
            subst: dict = {}
            if _unify_tuples(a1, a2, subst):
                yield _apply_clause(clause, subst)


def _is_ground(clause: Clause) -> bool:
    return not any(_has_var(t) for _, _, args in clause for t in args)


def _has_var(term) -> bool:
    t = type(term)
    return t is Var or (t is Func and any(_has_var(a) for a in term.args))


def _subsumes(c: Clause, d: Clause, c_ground: bool) -> bool:
    """True when some substitution maps every literal of c into d. A
    ground c has only the empty substitution, so then that is c <= d."""
    if len(c) > len(d):
        return False
    if c <= d:
        return True
    if c_ground:
        return False

    c_lits = list(c)
    d_lits = list(d)

    def match(i: int, subst: dict) -> bool:
        if i == len(c_lits):
            return True
        sign, pred, args = c_lits[i]
        for dsign, dpred, dargs in d_lits:
            if dsign != sign or dpred != pred:
                continue
            nxt = _unify_match(args, dargs, subst)
            if nxt is not None and match(i + 1, nxt):
                return True
        return False

    return match(0, {})


def _unify_match(xs: tuple, ys: tuple, subst: dict) -> dict | None:
    """One-way matching: variables may bind in xs only."""
    if len(xs) != len(ys):
        return None
    for x, y in zip(xs, ys):
        subst2 = _match_term(x, y, subst)
        if subst2 is None:
            return None
        subst = subst2
    return subst


def _match_term(x, y, subst) -> dict | None:
    t = type(x)
    if t is Var:
        bound = subst.get(x.name)
        if bound is None:
            return {**subst, x.name: y}
        return subst if bound == y else None
    if t is Const:
        return subst if x == y else None
    if t is Func and type(y) is Func:
        if x.name != y.name:
            return None
        return _unify_match(x.args, y.args, subst)
    return None


def resolution_refute(clauses, budget: ProverBudget) -> str:
    """Given-clause saturation; REFUTED certifies unsatisfiability and
    SATURATED certifies satisfiability.

    Each kept clause carries its (sign, predicate) signature, whether it is
    ground, and a copy renamed apart with that copy's literals grouped by
    signature. A clause can subsume only one whose signature holds its
    own, a clause resolves only with one whose signature meets its
    complement, and only a clause whose signature meets its own complement
    can be a tautology: pairs failing these tests are skipped without
    unifying anything.
    """
    deadline = time.monotonic() + budget.max_seconds
    kept: list[tuple[Clause, frozenset, bool, Clause, dict]] = []
    queue = deque(frozenset(c) for c in clauses)
    generated = len(queue)
    while queue:
        if time.monotonic() > deadline or generated > budget.max_clauses:
            return BUDGET_EXCEEDED
        given = queue.popleft()
        if not given:
            return REFUTED
        sig = _signature(given)
        co_sig = frozenset([(not sign, pred) for sign, pred in sig])
        if not sig.isdisjoint(co_sig) and _is_tautology(given):
            continue
        if any(k_sig <= sig and _subsumes(k, given, k_ground)
               for k, k_sig, k_ground, _, _ in kept):
            continue
        ground = _is_ground(given)
        kept = [e for e in kept if not (sig <= e[1] and _subsumes(given, e[0], ground))]
        renamed = _rename_clause(given, "r")
        kept.append((given, sig, ground, renamed, _by_signature(renamed)))
        new: list[Clause] = list(_factors(given)) if len(sig) < len(given) else []
        for _, k_sig, _, k_renamed, k_groups in kept:
            if not co_sig.isdisjoint(k_sig):
                new.extend(_resolvents(given, k_renamed, k_groups))
        for clause in new:
            generated += 1
            if not clause:
                return REFUTED
            queue.append(clause)
    return SATURATED


# ---------------------------------------------------------------------------
# finite-model evaluation and search

def eval_in_model(formula: FolFormula, model: FiniteModel) -> bool:
    return _eval_node(as_quantified_tree(formula), model, {})


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
    if isinstance(term, Variable):
        if term.name in env:
            return env[term.name]
        # stray free variable treated as a constant symbol
        return model.constants[term.name]
    return model.constants[term.name]


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
    f: FolFormula,
    g: FolFormula,
    budget: ProverBudget,
    domain_sizes=None,
) -> FiniteModel | None:
    """Search small interpretations for one where exactly one formula holds."""
    consts_f, preds_f = collect_symbols(f)
    consts_g, preds_g = collect_symbols(g)
    # the same name with two arities (across formulas) denotes two relations;
    # mixed-arity tuples coexist safely in one relation set
    slots: set[tuple[str, int]] = set(preds_f.items()) | set(preds_g.items())
    pred_slots = sorted(slots)
    constants = sorted(consts_f | consts_g | set(free_variables(f)) | set(free_variables(g)))
    if domain_sizes is None:
        domain_sizes = range(1, budget.max_model_domain + 1)
    deadline = time.monotonic() + budget.max_seconds
    for k in domain_sizes:
        tuple_spaces = [
            list(itertools.product(range(k), repeat=arity)) for _, arity in pred_slots
        ]
        for const_map in _constant_assignments(constants, k):
            relation_choices = [range(1 << len(space)) for space in tuple_spaces]
            for masks in itertools.product(*relation_choices):
                if time.monotonic() > deadline:
                    return None
                rels: dict[str, frozenset] = {}
                for i, (name, _) in enumerate(pred_slots):
                    chosen = frozenset(
                        tup
                        for idx, tup in enumerate(tuple_spaces[i])
                        if masks[i] >> idx & 1
                    )
                    rels[name] = rels.get(name, frozenset()) | chosen
                model = FiniteModel(k, dict(const_map), rels)
                if eval_in_model(f, model) != eval_in_model(g, model):
                    return model
    return None


# ---------------------------------------------------------------------------
# the full check

def difference_formula(f: FolFormula, g: FolFormula) -> FolFormula:
    """not(f <-> g) expressed with the core connectives."""
    tf = as_quantified_tree(f)
    tg = as_quantified_tree(g)
    matrix = Or((And((tf, Not(tg))), And((Not(tf), tg))))
    return FolFormula((), matrix)


def equivalent_fol(
    f: FolFormula, g: FolFormula, budget: ProverBudget | None = None
) -> EquivalenceVerdict:
    budget = budget or ProverBudget()
    f = universal_closure(f)
    g = universal_closure(g)
    if print_fol(f) == print_fol(g):
        return equivalent()

    quick = min(2, budget.max_model_domain)
    model = find_countermodel(f, g, budget, domain_sizes=range(1, quick + 1))
    if model is not None:
        return not_equivalent(witness=model)

    clauses = clausify(difference_formula(f, g))
    outcome = resolution_refute(clauses, budget)
    if outcome == REFUTED:
        return equivalent()

    deeper = None
    if budget.max_model_domain > quick:
        deeper = find_countermodel(
            f, g, budget, domain_sizes=range(quick + 1, budget.max_model_domain + 1)
        )
    if outcome == SATURATED:
        if deeper is not None:
            return not_equivalent(witness=deeper)
        return not_equivalent(
            reason="difference is satisfiable (saturation) but has no model "
            f"within domain size {budget.max_model_domain}"
        )
    if deeper is not None:
        return not_equivalent(witness=deeper)
    return unknown("prover budget exhausted and no countermodel within bound")
