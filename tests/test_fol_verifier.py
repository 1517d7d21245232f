"""First-order verifier: clausification, resolution, countermodels, and the
known-identity suite, cross-checked against a test-local model evaluator
and the propositional verifier on ground formulas."""

import itertools
import random
import time

import pytest

from conftest import quantify, random_fol
from formaltrip.pipeline.nl_codec import parse_description
from formaltrip.pipeline.runner import witness_payload
from formaltrip.syntax import parse_fol
from formaltrip.syntax.nodes import (
    And,
    Atom,
    Constant,
    LogicNode,
    Not,
    Or,
    Quantified,
    Variable,
    symbols,
    walk,
)
from formaltrip.verify import (
    FiniteModel,
    ProverBudget,
    clausify,
    equivalent_fol,
    equivalent_prop,
    eval_in_model,
    find_countermodel,
    resolution_refute,
    universal_closure,
    verify_pair,
)
from formaltrip.verify.fol import (
    BUDGET_EXCEEDED,
    REFUTED,
    SATURATED,
    difference_formula,
    free_variables,
)
from formaltrip.verify.verdict import Status
from test_verifier_pins import CLAUSE_BUDGETS, OUTCOME

QUICK = ProverBudget(max_clauses=5000, max_seconds=5.0, max_model_domain=3)


# --- independent model evaluator --------------------------------------------

def independent_eval(formula: LogicNode, model) -> bool:
    """Naive re-implementation: quantifier loops over the raw domain."""

    def node_value(node, env):
        if isinstance(node, Atom):
            args = tuple(
                env[t.name] if isinstance(t, Variable) and t.name in env
                else model.constants[t.name]
                for t in node.terms
            )
            return args in model.predicates.get(node.predicate, frozenset())
        if isinstance(node, Not):
            return not node_value(node.child, env)
        if isinstance(node, And):
            return all(node_value(c, env) for c in node.children)
        if isinstance(node, Or):
            return any(node_value(c, env) for c in node.children)
        if isinstance(node, Quantified):
            assignments = itertools.product(
                range(model.domain_size), repeat=len(node.variables)
            )
            results = (
                node_value(node.body, {**env, **dict(zip(node.variables, combo))})
                for combo in assignments
            )
            return all(results) if node.kind == "forall" else any(results)
        raise TypeError(node)

    return node_value(formula, {})


# --- universal closure -------------------------------------------------------

def test_closure_leaves_ground_formula_alone():
    f = parse_fol("pred2(p3,p5)")
    assert universal_closure(f) == f


def test_closure_adds_prefix_for_free_variable():
    f = Atom("pred1", (Variable("x"),))
    closed = universal_closure(f)
    assert closed == Quantified("forall", ("x",), f)


def test_closure_idempotent_on_closed_formula():
    f = parse_fol("∀ x1. pred3(p5, x1)")
    assert universal_closure(f) == f


# --- clausification ----------------------------------------------------------

def lits(clauses):
    return {frozenset((s, p, a) for s, p, a in c) for c in clauses}


def test_single_literal_clause():
    out = clausify(parse_fol("∀x. pred1(x)"))
    assert len(out) == 1
    ((sign, pred, args),) = list(out[0])
    assert sign and pred == "pred1" and type(args[0]) is int


def test_existential_becomes_skolem_constant():
    out = clausify(parse_fol("∃y. ¬pred1(y)"))
    ((sign, pred, args),) = list(out[0])
    assert not sign and type(args[0]) is str


def test_existential_under_universal_becomes_function():
    out = clausify(parse_fol("∀x.∃y. pred2(x,y)"))
    ((sign, pred, args),) = list(out[0])
    assert type(args[0]) is int
    assert type(args[1]) is tuple
    assert args[1][1] == (args[0],)


def test_skolem_symbols_skip_the_formulas_constants():
    out = clausify(parse_fol("(∃y. pred1(y)) ∧ (∀x. ∃z. pred2(x, z)) ∧ pred2(sk0, sk1)"))
    skolems = {args[0] for _, _, args in out[0]} | {args[1][0] for _, _, args in out[1]}
    assert len(skolems) == 2 and not skolems & {"sk0", "sk1"}


@pytest.mark.parametrize("left,right,budget", [
    ("∀x. pred1(x)",
     "pred1(sk1) ∧ ((∀x. pred1(x)) ∨ "
     "(∃y. ∃z. (¬pred1(y) ∧ ¬pred1(z) ∧ pred2(y) ∧ ¬pred2(z))))",
     None),
    ("pred1(sk0)", "∀x. pred1(x)", ProverBudget(max_model_domain=1)),
])
def test_constant_named_like_a_skolem_symbol(left, right, budget):
    # a Skolem constant sharing a source constant's name would make these
    # differences unsatisfiable and the pairs "equivalent"
    verdict = verify_pair("fol", parse_fol(left), parse_fol(right), budget)
    assert verdict.status == Status.NOT_EQUIVALENT


# --- resolution ---------------------------------------------------------------

def test_one_step_refutation():
    clauses = clausify(parse_fol("∀x. pred1(x)")) + clausify(parse_fol("∃y. ¬pred1(y)"))
    assert resolution_refute(clauses, QUICK) == REFUTED


def test_empty_set_is_satisfiable():
    assert resolution_refute([], QUICK) == SATURATED


def test_single_ground_clause_saturates():
    clauses = clausify(parse_fol("pred1(p1)"))
    assert resolution_refute(clauses, QUICK) == SATURATED


def test_budget_exceeded_reported():
    # unit budget cannot finish anything non-trivial
    f = parse_fol("∀x. (pred1(x) ∨ pred2(x))")
    g = parse_fol("∀x. (pred2(x) ∨ pred1(x))")
    from formaltrip.verify.fol import clausify as cl, difference_formula

    clauses = cl(difference_formula(f, g))
    tiny = ProverBudget(max_clauses=1, max_seconds=5.0, max_model_domain=2)
    assert resolution_refute(clauses, tiny) == BUDGET_EXCEEDED


# A proposition among first-order atoms: `p1` parses as Atom('p1', ()).
# (left, right, equivalent_fol status, witness payload, resolution outcome
#  per clause budget, least clause budget that decides), as in FOL_PINS.
ZERO_ARITY_PINS = [
    ("∀ x1. (p1 ∧ pred1(x1))", "p1 ∧ ∀ x1. pred1(x1)", "equivalent", None, "RRRR", 24),
    ("∀ x1. (p1 ∨ pred1(x1))", "p1 ∨ ∀ x1. pred1(x1)", "equivalent", None, "RRRR", 29),
    ("∀ x1. (¬p1 ∨ pred1(x1))", "¬p1 ∧ ∀ x1. pred1(x1)", "not_equivalent",
     {"domain_size": 1, "constants": {}, "predicates": {"p1": [], "pred1": []}}, "SSSS", 14),
]


@pytest.mark.parametrize("left,right,status,witness,outcomes,needed", ZERO_ARITY_PINS)
def test_zero_arity_atoms_beside_predicates(left, right, status, witness, outcomes, needed):
    f, g = parse_fol(left), parse_fol(right)
    assert Atom("p1", ()) in walk(f)
    verdict = equivalent_fol(f, g, ProverBudget(max_clauses=1000, max_model_domain=1))
    assert verdict.status.value == status
    assert witness_payload(verdict) == witness
    clauses = clausify(difference_formula(f, g))
    got = [resolution_refute(clauses, ProverBudget(max_clauses=n)) for n in CLAUSE_BUDGETS]
    assert got == [OUTCOME[c] for c in outcomes]
    assert resolution_refute(clauses, ProverBudget(max_clauses=needed)) != BUDGET_EXCEEDED
    assert resolution_refute(clauses, ProverBudget(max_clauses=needed - 1)) == BUDGET_EXCEEDED


# --- countermodels -------------------------------------------------------------

def test_countermodel_for_constant_vs_variable():
    f, g = parse_fol("∃x1. ¬pred2(p4)"), parse_fol("∃x1. ¬pred2(x1)")
    model = find_countermodel(f, g, QUICK)
    assert model is not None
    assert model.domain_size <= 2
    assert independent_eval(f, model) != independent_eval(g, model)


def test_no_countermodel_for_identical_formulas():
    f = parse_fol("∀ x1. pred3(p5, x1)")
    assert find_countermodel(f, f, QUICK) is None


def test_distinct_constants_distinguished():
    f, g = parse_fol("pred1(a)"), parse_fol("pred1(b)")
    model = find_countermodel(f, g, QUICK)
    assert model is not None
    assert model.domain_size == 2
    assert independent_eval(f, model) != independent_eval(g, model)


def test_countermodel_search_gives_up_when_its_clock_has_run_out():
    f, g = parse_fol("pred1(a)"), parse_fol("pred1(b)")
    expired = ProverBudget(max_clauses=5000, max_seconds=-1.0, max_model_domain=2)
    assert find_countermodel(f, g, expired) is None


# true only with three elements told apart by pred1/pred2; the right side never holds
THREE_KINDS = (
    "(∃x. (pred1(x) ∧ pred2(x))) ∧ (∃y. (pred1(y) ∧ ¬pred2(y))) ∧ (∃z. ¬pred1(z))",
    "∃x. (pred1(x) ∧ ¬pred1(x))",
)


def test_deeper_countermodel_after_resolution_budget_is_exceeded():
    from formaltrip.verify.fol import difference_formula

    f, g = map(parse_fol, THREE_KINDS)
    budget = ProverBudget(max_clauses=1, max_seconds=5.0, max_model_domain=3)
    assert find_countermodel(f, g, budget, domain_sizes=range(1, 3)) is None
    assert resolution_refute(clausify(difference_formula(f, g)), budget) == BUDGET_EXCEEDED
    verdict = equivalent_fol(f, g, budget)
    assert verdict.status is Status.NOT_EQUIVALENT
    model = verdict.witness
    assert model.domain_size == 3
    assert eval_in_model(f, model) != eval_in_model(g, model)


# Every way out of `equivalent_fol`: (left, right, max_clauses,
# max_model_domain, status, witness payload, reason). SWAP is refuted with
# room and runs out of clauses with none; SAT and SAT3 saturate, and their
# only models need two and three elements; THREE_KINDS runs out of 1,000
# clauses, and its only models need three elements.
SWAP = ("∀x. (pred1(x) ∨ pred2(x))", "∀x. (pred2(x) ∨ pred1(x))")
SAT = ("pred1(a) ∧ ¬pred1(b)", "pred1(a) ∧ ¬pred1(a)")
SAT3 = ("pred1(a) ∧ ¬pred1(b) ∧ pred2(b) ∧ ¬pred2(c) ∧ pred2(a) ∧ ¬pred1(c)", "pred1(a) ∧ ¬pred1(a)")
NO_MODEL = "difference is satisfiable (saturation) but has no model within domain size {}"
EXHAUSTED = "prover budget exhausted and no countermodel within bound"
EQUIVALENT_FOL_OUTCOMES = [
    ("∀ x1. pred1(x1)", "∀ x1. pred1(x1)", 1, 1, "equivalent", None, None),
    ("pred1(a)", "pred1(b)", 1000, 2, "not_equivalent",
     {"domain_size": 2, "constants": {"a": 0, "b": 1}, "predicates": {"pred1": [[0]]}}, None),
    (*SWAP, 1000, 1, "equivalent", None, None),
    (*SWAP, 1, 1, "unknown", None, EXHAUSTED),
    (*SWAP, 1, 3, "unknown", None, EXHAUSTED),
    (*SAT, 1000, 1, "not_equivalent", None, NO_MODEL.format(1)),
    (*SAT, 1000, 2, "not_equivalent",
     {"domain_size": 2, "constants": {"a": 0, "b": 1}, "predicates": {"pred1": [[0]]}}, None),
    (*SAT3, 1000, 2, "not_equivalent", None, NO_MODEL.format(2)),
    (*SAT3, 1000, 3, "not_equivalent",
     {"domain_size": 3, "constants": {"a": 0, "b": 1, "c": 2},
      "predicates": {"pred1": [[0]], "pred2": [[0], [1]]}}, None),
    (*THREE_KINDS, 1000, 2, "unknown", None, EXHAUSTED),
    (*THREE_KINDS, 1000, 3, "not_equivalent",
     {"domain_size": 3, "constants": {}, "predicates": {"pred1": [[0], [1]], "pred2": [[0]]}}, None),
    (*THREE_KINDS, 1, 3, "not_equivalent",
     {"domain_size": 3, "constants": {}, "predicates": {"pred1": [[0], [1]], "pred2": [[0]]}}, None),
]


@pytest.mark.parametrize("left,right,clauses,domain,status,witness,reason", EQUIVALENT_FOL_OUTCOMES)
def test_equivalent_fol_outcomes(left, right, clauses, domain, status, witness, reason):
    verdict = equivalent_fol(parse_fol(left), parse_fol(right),
                             ProverBudget(max_clauses=clauses, max_model_domain=domain))
    assert (verdict.status.value, witness_payload(verdict), verdict.reason) == (status, witness, reason)


def enumerated_countermodel(f, g, domain_sizes):
    """The first countermodel in search order, one candidate at a time: per
    domain size, constant assignments canonical up to domain permutation in
    lexicographic order, then every choice of relations, the last predicate
    slot varying fastest and tuple i of a slot bit i of its mask."""
    sf, sg = symbols(f), symbols(g)
    slots = sorted({*sf.predicates, *sg.predicates})
    constants = sorted({*sf.objects, *sg.objects, *free_variables(f), *free_variables(g)})
    for k in domain_sizes:
        spaces = [list(itertools.product(range(k), repeat=arity)) for _, arity in slots]
        for values in itertools.product(range(k), repeat=len(constants)):
            if any(v > max(values[:i], default=-1) + 1 for i, v in enumerate(values)):
                continue
            for masks in itertools.product(*[range(1 << len(space)) for space in spaces]):
                relations = {}
                for (name, _), space, mask in zip(slots, spaces, masks):
                    chosen = frozenset(t for i, t in enumerate(space) if mask >> i & 1)
                    relations[name] = relations.get(name, frozenset()) | chosen
                model = FiniteModel(k, dict(zip(constants, values)), relations)
                if independent_eval(f, model) != independent_eval(g, model):
                    return model
    return None


def _root_chain(formula):
    """The quantifier blocks at the root, and the formula below them."""
    chain = []
    while isinstance(formula, Quantified):
        chain.append((formula.kind, formula.variables))
        formula = formula.body
    return chain, formula


def _differential_pairs():
    rng = random.Random(31)
    pairs = []
    for _ in range(40):
        f = random_fol(rng, 2)
        pairs.append((f, random_fol(rng, 2)))
        chain, body = _root_chain(f)
        # no countermodel: the same formula under a double negation
        pairs.append((f, quantify(chain, Not(Not(body)))))
        # the same body under other quantifiers: some differ only at size 2
        flipped = [("exists" if kind == "forall" else "forall", names) for kind, names in chain]
        pairs.append((f, quantify(flipped, body)))
    return pairs


@pytest.mark.parametrize("block_limit", [None, 3])
def test_countermodel_search_matches_enumeration(block_limit, monkeypatch):
    # a limit of 3 splits every table past 3 ground atoms into blocks of 8 rows
    if block_limit is not None:
        monkeypatch.setattr("formaltrip.verify.prop.EXHAUSTIVE_LIMIT", block_limit)
    budget = ProverBudget(max_seconds=60.0, max_model_domain=2)
    outcomes = set()
    for f, g in _differential_pairs():
        model = find_countermodel(f, g, budget)
        assert model == enumerated_countermodel(f, g, (1, 2))
        outcomes.add(None if model is None else model.domain_size)
        if model is not None:
            assert eval_in_model(f, model) != eval_in_model(g, model)
    assert outcomes == {None, 1, 2}


# --- the identity suites --------------------------------------------------------

EQUIVALENT_PAIRS = [
    ("¬∀x. pred1(x)", "∃y. ¬pred1(y)"),
    ("¬∃x. pred1(x)", "∀y. ¬pred1(y)"),
    ("∀x. ∀y. pred2(x,y)", "∀y. ∀x. pred2(x,y)"),
    ("∃x. ∃y. pred2(x,y)", "∃y. ∃x. pred2(x,y)"),
    ("∀x. (pred1(x) ∧ pred2(x))", "(∀x. pred1(x)) ∧ (∀y. pred2(y))"),
    ("∃x. (pred1(x) ∨ pred2(x))", "(∃x. pred1(x)) ∨ (∃y. pred2(y))"),
    ("pred1(p1)", "∀x. pred1(p1)"),
    ("pred1(p1)", "∃x. pred1(p1)"),
    ("∀x. (pred1(x) ∧ pred2(x))", "∀x. (pred2(x) ∧ pred1(x))"),
    ("∃x. (pred1(x) ∨ pred2(x))", "∃x. (pred2(x) ∨ pred1(x))"),
    ("¬¬pred1(p1)", "pred1(p1)"),
    ("¬(pred1(p1) ∧ pred2(p2))", "¬pred1(p1) ∨ ¬pred2(p2)"),
    (
        "pred1(p1) ∧ (pred2(p2) ∨ pred3(p3))",
        "(pred1(p1) ∧ pred2(p2)) ∨ (pred1(p1) ∧ pred3(p3))",
    ),
    ("∀x. (pred1(x) ∨ pred2(p1))", "(∀x. pred1(x)) ∨ pred2(p1)"),
    ("∃x. (pred1(x) ∧ pred2(p1))", "(∃x. pred1(x)) ∧ pred2(p1)"),
    ("pred1(p1) ∧ pred1(p1)", "pred1(p1)"),
    ("pred1(p1) ∨ pred1(p1)", "pred1(p1)"),
    ("pred1(p1) ∧ (pred1(p1) ∨ pred2(p2))", "pred1(p1)"),
    ("∀x. pred1(x)", "∀y. pred1(y)"),
    ("(∀x. pred1(x)) ∧ (∃y. pred2(y))", "∀x. ∃y. (pred1(x) ∧ pred2(y))"),
]

NOT_EQUIVALENT_PAIRS = [
    ("∃x1. ¬pred2(p4)", "∃x1. ¬pred2(x1)"),
    ("∃x1. ¬pred5(p7)", "∃p7. ¬pred5(p7)"),
    ("∀x. pred1(x)", "∃x. pred1(x)"),
    ("pred2(p3, p5)", "pred2(p5, p3)"),
    ("pred1(p1)", "pred1(p2)"),
    ("∀x. (pred1(x) ∨ pred2(x))", "(∀x. pred1(x)) ∨ (∀x. pred2(x))"),
    ("∃x. (pred1(x) ∧ pred2(x))", "(∃x. pred1(x)) ∧ (∃x. pred2(x))"),
    ("¬(pred1(p1) ∧ pred2(p2))", "¬pred1(p1) ∧ ¬pred2(p2)"),
    (
        "(¬pred8(p10) ∧ pred8(p5) ∧ pred6(p8))",
        "¬(pred8(p10) ∧ pred8(p5) ∧ pred6(p8))",
    ),
    ("∀x1. ¬¬pred3(p5)", "∀x1. ¬(pred3(p5) ∨ ¬pred3(p5))"),
]


@pytest.mark.parametrize("left,right", EQUIVALENT_PAIRS)
def test_known_equivalences(left, right):
    started = time.monotonic()
    v = equivalent_fol(parse_fol(left), parse_fol(right), QUICK)
    assert v.status is Status.EQUIVALENT
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("left,right", NOT_EQUIVALENT_PAIRS)
def test_known_non_equivalences(left, right):
    f, g = parse_fol(left), parse_fol(right)
    v = equivalent_fol(f, g, QUICK)
    assert v.status is Status.NOT_EQUIVALENT
    assert v.witness is not None
    assert v.witness.domain_size <= 3
    assert independent_eval(universal_closure(f), v.witness) != independent_eval(
        universal_closure(g), v.witness
    )


def test_a_constant_and_a_variable_of_one_name_are_not_equivalent():
    # both print as "∀ x. P(x)": only the trees tell the constant from the variable
    constant = parse_description("for every x , ( predicate P of ( object x ) )", "fol").ast
    variable = parse_fol("∀x. P(x)")
    assert constant != variable
    v = equivalent_fol(constant, variable, QUICK)
    assert v.status is Status.NOT_EQUIVALENT
    assert independent_eval(constant, v.witness) != independent_eval(variable, v.witness)


def test_reflexivity():
    f = parse_fol("∀ x1. pred3(p5, x1)")
    assert equivalent_fol(f, f, QUICK).status is Status.EQUIVALENT


# --- randomized cross-checks ------------------------------------------------

def test_soundness_against_model_search():
    rng = random.Random(2024)
    budget = ProverBudget(max_clauses=3000, max_seconds=3.0, max_model_domain=3)
    for _ in range(500):
        f, g = random_fol(rng, 2), random_fol(rng, 2)
        verdict = equivalent_fol(f, g, budget)
        if verdict.status is Status.EQUIVALENT:
            model = find_countermodel(
                universal_closure(f), universal_closure(g), budget
            )
            assert model is None


def test_ground_agreement_with_prop_verifier():
    from formaltrip.syntax.nodes import Proposition

    rng = random.Random(77)
    budget = ProverBudget(max_clauses=3000, max_seconds=5.0, max_model_domain=4)
    checked = 0
    while checked < 500:
        f = random_fol(rng, 2)
        g = random_fol(rng, 2)
        if isinstance(f, Quantified) or isinstance(g, Quantified):
            continue
        checked += 1
        fol_verdict = equivalent_fol(f, g, budget)
        assert fol_verdict.status is not Status.UNKNOWN
        # one abstraction map shared across both formulas
        atom_names: dict = {}

        def ab(node):
            if isinstance(node, Atom):
                key = (node.predicate, tuple(t.name for t in node.terms))
                name = atom_names.setdefault(key, f"q{len(atom_names)}")
                return Proposition(name)
            if isinstance(node, Not):
                return Not(ab(node.child))
            if isinstance(node, (And, Or)):
                return type(node)(tuple(ab(c) for c in node.children))
            raise TypeError(node)

        prop_verdict = equivalent_prop(ab(f), ab(g))
        assert (fol_verdict.status is Status.EQUIVALENT) == (
            prop_verdict.status is Status.EQUIVALENT
        )


def test_a_predicate_at_two_arities_is_two_relations():
    # parsed text cannot hold this (ArityError); a hand-built tree can
    one, two = Atom("pred1", (Constant("a"),)), Atom("pred1", (Constant("a"), Constant("b")))
    f, g = Or((one, two)), And((one, two))
    verdict = equivalent_fol(f, g)
    assert verdict.status is Status.NOT_EQUIVALENT
    assert eval_in_model(f, verdict.witness) != eval_in_model(g, verdict.witness)
