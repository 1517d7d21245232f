"""Context-free grammar definitions, loading, and membership testing.

The four built-in grammars mirror the dataset families: 3-SAT clauses,
free-form propositional logic, prenex first-order logic, and regexes.
Placeholder terminals (v, p, f, Σ) are later replaced by vocabulary draws.

Membership is an Earley-style recognizer over sentential forms: input
tokens may include nonterminals, which match themselves, so derivability
of partially expanded forms is directly testable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

EPSILON = "ε"


@dataclass(frozen=True)
class GrammarSpec:
    id: str
    start: str
    rules: tuple[tuple[str, tuple[str, ...]], ...]
    nonterminals: frozenset[str] = field(default=frozenset())
    terminals: frozenset[str] = field(default=frozenset())

    @staticmethod
    def build(grammar_id: str, start: str, rules) -> "GrammarSpec":
        rules = tuple((lhs, tuple(rhs)) for lhs, rhs in rules)
        nonterminals = frozenset(lhs for lhs, _ in rules)
        terminals = frozenset(
            sym for _, rhs in rules for sym in rhs if sym not in nonterminals
        )
        if start not in nonterminals:
            raise ValueError(f"start symbol {start!r} has no production")
        return GrammarSpec(grammar_id, start, rules, nonterminals, terminals)


def _rules(text: str):
    """Parse `LHS -> RHS` lines; alternatives split on `|`, ε is empty."""
    out = []
    for raw in text.strip().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" not in line:
            raise ValueError(f"expected 'LHS -> RHS' in {line!r}")
        lhs, rhs_text = line.split("->", 1)
        lhs = lhs.strip()
        if not lhs:
            raise ValueError(f"missing left-hand side in {line!r}")
        for alt in rhs_text.split("|"):
            symbols = [s for s in alt.split() if s != EPSILON]
            out.append((lhs, tuple(symbols)))
    return out


def load_grammar(text: str, grammar_id: str = "custom") -> GrammarSpec:
    rules = _rules(text)
    if not rules:
        raise ValueError("no rules found")
    return GrammarSpec.build(grammar_id, rules[0][0], rules)


KSAT3 = GrammarSpec.build(
    "ksat3",
    "S",
    _rules(
        """
        S -> S ∧ S
        S -> ( P ∨ P ∨ P )
        P -> ¬ v | v
        """
    ),
)

PROP = GrammarSpec.build(
    "prop",
    "S",
    _rules(
        """
        S -> ( S ∧ S )
        S -> ( S ∨ S )
        S -> ( ¬ S )
        S -> ¬ v | v
        """
    ),
)

FOL = GrammarSpec.build(
    "fol",
    "S",
    _rules(
        """
        S -> Q
        Q -> F | ( ∀ f . Q ) | ( ∃ f . Q )
        F -> ( F ∧ F ) | ( F ∨ F )
        F -> ( ¬ F ) | ¬ p | p
        """
    ),
)

REGEX = GrammarSpec.build(
    "regex",
    "S",
    _rules(
        """
        S -> ( S ) K
        S -> S Σ K
        S -> Σ K
        K -> * | ε
        """
    ),
)

BUILTIN_GRAMMARS = {"ksat3": KSAT3, "prop": PROP, "fol": FOL, "regex": REGEX}


def infer_formalism(grammar: GrammarSpec) -> str:
    """Map a grammar to a formalism by its placeholder terminals, never by
    its id: a rule file's name says nothing about what its rules derive."""
    if "Σ" in grammar.terminals:
        return "regex"
    if {"∀", "∃"} & grammar.terminals or "f" in grammar.terminals:
        return "fol"
    if "v" in grammar.terminals or "p" in grammar.terminals:
        return "prop"
    raise ValueError(
        f"cannot infer a formalism for grammar {grammar.id!r}: expected "
        "placeholder terminals v/p/f/Σ"
    )


GRAMMAR_FORMALISM = {gid: infer_formalism(g) for gid, g in BUILTIN_GRAMMARS.items()}


# ---------------------------------------------------------------------------
# recognition

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d|\S")


def tokenize_for(grammar: GrammarSpec, text: str) -> list[str]:
    """Split text into grammar symbols, mapping instantiated vocabulary back
    to the grammar's placeholder terminals by its formalism: identifiers to
    v or p (prop), f or p (fol), digits to Σ (regex)."""
    raw = _IDENT.findall(text)
    try:
        formalism = infer_formalism(grammar)
    except ValueError:  # no placeholders: every token stands for itself
        return raw
    known = grammar.nonterminals | grammar.terminals
    out: list[str] = []
    i = 0
    while i < len(raw):
        tok = raw[i]
        i += 1
        if tok in known:
            out.append(tok)
        elif formalism == "regex":
            out.append("Σ")
        elif formalism == "prop":
            out.append("v" if "v" in grammar.terminals else "p")
        elif out and out[-1] in ("∀", "∃"):
            out.append("f")
        else:
            if i < len(raw) and raw[i] == "(":
                # grounded predicate: consume through the matching ')'
                depth = 0
                while i < len(raw):
                    depth += {"(": 1, ")": -1}.get(raw[i], 0)
                    i += 1
                    if depth == 0:
                        break
            out.append("p")
    return out


def recognize(grammar: GrammarSpec, text) -> bool:
    """Is the (possibly partially expanded) form derivable from the start?"""
    if isinstance(text, str):
        tokens = tokenize_for(grammar, text)
    else:
        tokens = list(text)
    return _earley(grammar, tokens)


def _nullable_set(grammar: GrammarSpec) -> frozenset[str]:
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in grammar.rules:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    return frozenset(nullable)


def _earley(grammar: GrammarSpec, tokens: list[str]) -> bool:
    nullable = _nullable_set(grammar)
    n = len(tokens)
    chart: list[set[tuple[int, int, int]]] = [set() for _ in range(n + 1)]

    def add(pos: int, item, worklist):
        if item not in chart[pos]:
            chart[pos].add(item)
            worklist.append(item)

    start_items = [
        (ri, 0, 0) for ri, (lhs, _) in enumerate(grammar.rules) if lhs == grammar.start
    ]
    for i in range(n + 1):
        worklist = list(chart[i]) if i else list(start_items)
        if i == 0:
            chart[0].update(start_items)
        while worklist:
            ri, dot, origin = worklist.pop()
            lhs, rhs = grammar.rules[ri]
            if dot < len(rhs):
                sym = rhs[dot]
                if sym in grammar.nonterminals:
                    for rj, (lhs2, _) in enumerate(grammar.rules):
                        if lhs2 == sym:
                            add(i, (rj, 0, i), worklist)
                    if sym in nullable:
                        add(i, (ri, dot + 1, origin), worklist)
                if i < n and tokens[i] == sym:
                    chart[i + 1].add((ri, dot + 1, origin))
            else:
                for rj, dot2, origin2 in list(chart[origin]):
                    lhs2, rhs2 = grammar.rules[rj]
                    if dot2 < len(rhs2) and rhs2[dot2] == lhs:
                        add(i, (rj, dot2 + 1, origin2), worklist)
    return any(
        dot == len(grammar.rules[ri][1]) and origin == 0 and grammar.rules[ri][0] == grammar.start
        for ri, dot, origin in chart[n]
    )
