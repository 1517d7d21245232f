"""Equivalence verifiers for the three formalisms plus the shared verdict."""

from .fol import (
    FiniteModel,
    ProverBudget,
    clausify,
    equivalent_fol,
    eval_in_model,
    find_countermodel,
    resolution_refute,
    universal_closure,
)
from .prop import Assignment, MissingVariable, equivalent_prop, eval_prop
from .regex import (
    AlphabetMismatch,
    Dfa,
    DfaMetrics,
    Nfa,
    compile_regex,
    determinize_minimize,
    dfa_metrics,
    equivalent_regex,
    nfa_accepts,
    to_nfa,
)
from .verdict import EquivalenceVerdict, Status, equivalent, not_equivalent, unknown

__all__ = [
    "AlphabetMismatch", "Assignment", "Dfa", "DfaMetrics",
    "EquivalenceVerdict", "FiniteModel", "MissingVariable", "Nfa",
    "ProverBudget", "Status", "clausify", "compile_regex",
    "determinize_minimize", "dfa_metrics", "equivalent", "equivalent_fol",
    "equivalent_prop", "equivalent_regex", "eval_in_model", "eval_prop",
    "find_countermodel", "nfa_accepts", "not_equivalent",
    "resolution_refute", "to_nfa", "universal_closure", "unknown",
    "verify_pair",
]


def verify_pair(formalism: str, left, right, budget: ProverBudget | None = None,
                alphabet=()) -> EquivalenceVerdict:
    """Dispatch to the matching verifier for two parsed ASTs.

    `alphabet` cannot change a regex verdict or its witness: a word holding
    a symbol that neither tree holds is rejected by both automata, so the
    shortlex-least distinguishing word never contains one."""
    if formalism == "prop":
        return equivalent_prop(left, right)
    if formalism == "fol":
        return equivalent_fol(left, right, budget)
    if formalism == "regex":
        return equivalent_regex(left, right, alphabet)
    raise ValueError(f"unknown formalism {formalism!r}")
