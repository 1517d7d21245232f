"""Correctness gate: checks a run's outputs; any finding fails the run.

Verdicts are checked independently of the verifier that produced them:
a `not_equivalent` witness must make the two sides differ under the
reference evaluators (`eval_prop`, `nfa_accepts`, `eval_in_model`), and an
`equivalent` verdict on textually different sides must survive an
exhaustive truth table (prop), every word up to a length bound (regex), or
a set of random small models (fol).
"""

from __future__ import annotations

import itertools
import json
import random
import re
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

from formaltrip import storage
from formaltrip.syntax import Atom, Constant, parse_expression
from formaltrip.verify import (
    FiniteModel,
    eval_in_model,
    eval_prop,
    nfa_accepts,
    to_nfa,
    universal_closure,
)

GOLDEN = Path(__file__).resolve().parent / "golden.json"
REGEX_WORD_LENGTH = 8
FOL_RANDOM_MODELS = 64


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def check_golden(workload: str, seed: int, hashes: dict, golden: dict) -> list[str]:
    """At the pinned seed every recorded hash must match."""
    if seed != golden["pinned_seed"]:
        return []
    want = golden["hashes"][workload]
    return [
        f"{name} sha256 {hashes.get(name)} != pinned {value}"
        for name, value in want.items()
        if hashes.get(name) != value
    ]


def check_round_trips(paths, perfect: bool, seed: int) -> tuple[list[str], dict]:
    """Findings, and verdict counts per formalism."""
    findings: list[str] = []
    counts: dict[str, Counter] = {}
    rng = random.Random(seed)
    for path in paths:
        _, records = storage.read_results(path)
        for r in records:
            status = r.verdict_status or ("error" if r.error else "noncompliant")
            counts.setdefault(r.formalism, Counter())[status] += 1
            if perfect and status != "equivalent":
                findings.append(f"{r.record_id}: perfect oracle gave {status}")
            if r.parsed is not None:
                problem = _check_verdict(r, rng)
                if problem:
                    findings.append(f"{r.record_id}: {problem}")
    return findings, {f: dict(sorted(c.items())) for f, c in sorted(counts.items())}


def check_summary(path: Path, perfect: bool) -> list[str]:
    summary = json.loads(path.read_text(encoding="utf-8"))
    if perfect and (summary["compliance"] != 1.0 or summary["accuracy"] != 1.0):
        return [f"perfect oracle: compliance {summary['compliance']}, accuracy {summary['accuracy']}"]
    return []


def check_judge(paths) -> list[str]:
    """The corrupting oracle (corruption_prob 1.0) inverts every answer."""
    findings = []
    for path in paths:
        _, records = storage.read_judge_results(path)
        for r in records:
            want = "no" if r.ground_truth == "equivalent" else "yes"
            if r.error or r.answer != want:
                findings.append(f"{r.pair_id}: judge answered {r.answer!r}, error {r.error!r}")
    return findings


def _check_verdict(r, rng) -> str | None:
    alphabet = set(r.alphabet) if r.alphabet else None
    left = parse_expression(r.formalism, r.expression, alphabet).ast
    right = parse_expression(r.formalism, r.parsed, alphabet).ast
    witness = r.verdict_witness
    if r.verdict_status == "not_equivalent":
        if witness is None:
            # FOL may prove a difference satisfiable without a finite model
            return None if r.formalism == "fol" else "not_equivalent without a witness"
        if not _differs_on(r, left, right, witness):
            return f"witness {witness!r} does not separate the two sides"
    elif r.verdict_status == "equivalent":
        if witness is not None:
            return "equivalent verdict carries a witness"
        if r.parsed != r.expression:
            counter = _find_difference(r, left, right, rng)
            if counter is not None:
                return f"equivalent, but the sides differ on {counter!r}"
    return None


def _differs_on(r, left, right, witness) -> bool:
    if r.formalism == "prop":
        return eval_prop(left, witness) != eval_prop(right, witness)
    if r.formalism == "regex":
        sigma = _regex_sigma(r) | set(witness)
        return nfa_accepts(to_nfa(left, sigma), witness) != nfa_accepts(to_nfa(right, sigma), witness)
    model = FiniteModel(
        witness["domain_size"],
        witness["constants"],
        {name: frozenset(map(tuple, rows)) for name, rows in witness["predicates"].items()},
    )
    return eval_in_model(universal_closure(left), model) != eval_in_model(universal_closure(right), model)


def _find_difference(r, left, right, rng):
    """A point where the two sides differ, or None if none was found."""
    if r.formalism == "prop":
        names = sorted(set(re.findall(r"[A-Za-z_]\w*", r.expression + " " + r.parsed)))
        for bits in itertools.product((False, True), repeat=len(names)):
            point = dict(zip(names, bits))
            if eval_prop(left, point) != eval_prop(right, point):
                return point
        return None
    if r.formalism == "regex":
        sigma = _regex_sigma(r)
        a, b = to_nfa(left, sigma), to_nfa(right, sigma)
        for n in range(REGEX_WORD_LENGTH + 1):
            for word in map("".join, itertools.product(sorted(sigma), repeat=n)):
                if nfa_accepts(a, word) != nfa_accepts(b, word):
                    return word
        return None
    f, g = universal_closure(left), universal_closure(right)
    constants, predicates = set(), {}
    for atom in _atoms(f) + _atoms(g):
        predicates[atom.predicate] = len(atom.terms)
        constants |= {t.name for t in atom.terms if isinstance(t, Constant)}
    for _ in range(FOL_RANDOM_MODELS):
        k = rng.randint(1, 3)
        model = FiniteModel(
            k,
            {c: rng.randrange(k) for c in sorted(constants)},
            {
                p: frozenset(t for t in itertools.product(range(k), repeat=n) if rng.random() < 0.5)
                for p, n in sorted(predicates.items())
            },
        )
        if eval_in_model(f, model) != eval_in_model(g, model):
            return {"domain_size": k, "constants": model.constants}
    return None


def _regex_sigma(r) -> set[str]:
    return set(r.alphabet or ()) | (set(r.expression + r.parsed) - set("()* "))


def _atoms(node) -> list:
    if isinstance(node, Atom):
        return [node]
    if isinstance(node, tuple):
        return [a for child in node for a in _atoms(child)]
    if is_dataclass(node):
        return [a for f in fields(node) for a in _atoms(getattr(node, f.name))]
    return []
