"""Regex verifier against independent oracles.

The equivalence oracle walks the product of the two NFAs directly (pure
subset simulation, no determinization/minimization code shared with the
verifier); the minimality oracle is a table-filling minimizer. Python's `re`
shares no automaton code at all: it checks membership and witnesses.
"""

import itertools
import random
import re

import pytest
from conftest import random_regex, regex_asts
from hypothesis import given

from formaltrip.syntax import parse_regex
from formaltrip.syntax.nodes import Concat, Literal, Star
from formaltrip.syntax.printer import print_regex
from formaltrip.verify import (
    AlphabetMismatch,
    compile_regex,
    dfa_metrics,
    determinize_minimize,
    equivalent_regex,
    nfa_accepts,
    to_nfa,
)
from formaltrip.verify.regex import _determinize
from formaltrip.verify.verdict import Status

SIGMA = ("0", "1")


# --- independent oracles ----------------------------------------------------

def _closure(states, eps):
    out = set(states)
    stack = list(states)
    while stack:
        s = stack.pop()
        for t in eps.get(s, ()):  # pragma: no branch
            if t not in out:
                out.add(t)
                stack.append(t)
    return frozenset(out)


def _tables(nfa):
    eps, step = {}, {}
    for src, label, dst in nfa.transitions:
        if label is None:
            eps.setdefault(src, []).append(dst)
        else:
            step.setdefault((src, label), set()).add(dst)
    return eps, step


def product_difference_empty(r1, r2, alphabet=SIGMA) -> bool:
    """BFS over pairs of NFA state subsets; True iff no word separates them."""
    n1, n2 = to_nfa(r1, alphabet), to_nfa(r2, alphabet)
    eps1, step1 = _tables(n1)
    eps2, step2 = _tables(n2)
    start = (_closure({n1.start}, eps1), _closure({n2.start}, eps2))
    seen = {start}
    frontier = [start]
    while frontier:
        s1, s2 = frontier.pop()
        if bool(s1 & n1.accepting) != bool(s2 & n2.accepting):
            return False
        for sym in alphabet:
            t1 = _closure(
                {d for s in s1 for d in step1.get((s, sym), ())}, eps1
            )
            t2 = _closure(
                {d for s in s2 for d in step2.get((s, sym), ())}, eps2
            )
            pair = (t1, t2)
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return True


def table_filling_state_count(regex, alphabet=SIGMA) -> int:
    """Minimal-state count via pairwise marking on the unminimized DFA."""
    dfa = _determinize(to_nfa(regex, alphabet))
    reachable = sorted(_reachable_states(dfa))
    marked = set()
    for a, b in itertools.combinations(reachable, 2):
        if (a in dfa.accepting) != (b in dfa.accepting):
            marked.add((a, b))
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(reachable, 2):
            if (a, b) in marked:
                continue
            for sym_idx in range(len(dfa.alphabet)):
                ta, tb = dfa.transitions[a][sym_idx], dfa.transitions[b][sym_idx]
                key = (min(ta, tb), max(ta, tb))
                if ta != tb and key in marked:
                    marked.add((a, b))
                    changed = True
                    break
    merged = {s: s for s in reachable}
    for a, b in itertools.combinations(reachable, 2):
        if (a, b) not in marked:
            merged[b] = min(merged[b], merged[a])
    return len(set(merged.values()))


def _reachable_states(dfa):
    seen = {dfa.start}
    stack = [dfa.start]
    while stack:
        s = stack.pop()
        for t in dfa.transitions[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def simulate(dfa, word) -> bool:
    return dfa.accepts(word)


def to_pattern(node) -> str:
    """The regex as a Python `re` pattern; `re` rejects `0**`, so a star
    wraps its child in a non-capturing group."""
    if isinstance(node, Literal):
        return re.escape(node.symbol)
    if isinstance(node, Star):
        return f"(?:{to_pattern(node.child)})*"
    return "".join(to_pattern(c) for c in node.children)


def literals(node) -> list[str]:
    """The symbols of the regex's literals in pre-order."""
    if isinstance(node, Literal):
        return [node.symbol]
    if isinstance(node, Star):
        return literals(node.child)
    return [sym for c in node.children for sym in literals(c)]


def words(alphabet, max_length):
    """Every word up to max_length in shortlex order."""
    for n in range(max_length + 1):
        for letters in itertools.product(sorted(alphabet), repeat=n):
            yield "".join(letters)


def random_regexes(rng, count):
    """Seeded regexes over 1-3 symbols: single literals, stars of stars and
    nested stars first, then random trees up to depth 5."""
    fixed = [
        (Literal("0"), ("0",)),
        (Literal("2"), ("0", "1", "2")),
        (Star(Star(Literal("1"))), ("0", "1")),
        (Star(Star(Star(Literal("0")))), ("0",)),
        (Star(Concat((Star(Literal("0")), Literal("1")))), ("0", "1")),
        (Concat((Star(Concat((Literal("0"), Star(Literal("2"))))), Star(Star(Literal("1"))))), ("0", "1", "2")),
    ]
    yield from fixed
    for _ in range(count - len(fixed)):
        alphabet = ("0", "1", "2")[: rng.randint(1, 3)]
        yield random_regex(rng, rng.randint(0, 5), alphabet), alphabet


# --- construction ----------------------------------------------------------

def test_single_literal_nfa():
    nfa = to_nfa(parse_regex("0"), SIGMA)
    assert nfa_accepts(nfa, "0")
    assert not nfa_accepts(nfa, "")
    assert not nfa_accepts(nfa, "1")


def test_a_literal_outside_the_alphabet_is_refused():
    with pytest.raises(AlphabetMismatch, match="'2' outside alphabet"):
        to_nfa(parse_regex("02", {"0", "1", "2"}), SIGMA)


def test_star_closure():
    nfa = to_nfa(parse_regex("1*"), SIGMA)
    for word in ("", "1", "11", "111"):
        assert nfa_accepts(nfa, word)
    assert not nfa_accepts(nfa, "0")


def test_position_automaton_structure(rng):
    """State 0 is the start, state i the i-th literal in pre-order, and
    every transition into state i reads that literal's symbol."""
    for r, alphabet in random_regexes(rng, 300):
        nfa = to_nfa(r, alphabet)
        symbols = literals(r)
        assert nfa.n_states == len(symbols) + 1
        assert nfa.start == 0
        for src, label, dst in nfa.transitions:
            assert label is not None
            assert 0 <= src < nfa.n_states and 1 <= dst < nfa.n_states
            assert label == symbols[dst - 1]


def test_delimited_alternation_membership():
    nfa = to_nfa(parse_regex("2(01)*2", {"0", "1", "2"}), ("0", "1", "2"))
    for word in ("22", "2012", "201012"):
        assert nfa_accepts(nfa, word)
    assert not nfa_accepts(nfa, "202")


def test_canonical_dfa_of_literal_has_dead_state():
    dfa = compile_regex(parse_regex("0"), SIGMA)
    assert dfa.n_states == 3
    assert dfa.start == 0
    assert dfa.accepting != set()


def test_star_of_star_collapses_to_one_state():
    dfa = compile_regex(parse_regex("(1*)*"), ("1",))
    assert dfa.n_states == 1
    assert 0 in dfa.accepting


def test_equal_languages_share_canonical_form():
    d1 = compile_regex(parse_regex("1*1*1*"), ("1",))
    d2 = compile_regex(parse_regex("1*"), ("1",))
    assert d1 == d2


# --- equivalence -----------------------------------------------------------

def test_extra_one_required():
    v = equivalent_regex(parse_regex("1*11*"), parse_regex("1*1*1*"), SIGMA)
    assert v.status is Status.NOT_EQUIVALENT
    assert v.witness == ""


def test_star_of_star_prefix():
    v = equivalent_regex(parse_regex("(1*)*0"), parse_regex("1*0"), SIGMA)
    assert v.status is Status.EQUIVALENT


def test_inserted_literal():
    v = equivalent_regex(parse_regex("(1*)0"), parse_regex("(1*)10"), SIGMA)
    assert v.status is Status.NOT_EQUIVALENT
    assert v.witness == "0"


def test_oracle_agreement_500_pairs(rng):
    mismatches = 0
    for _ in range(500):
        r1, r2 = random_regex(rng, 4), random_regex(rng, 4)
        expected = product_difference_empty(r1, r2)
        got = equivalent_regex(r1, r2, SIGMA).status is Status.EQUIVALENT
        if expected != got:
            mismatches += 1
    assert mismatches == 0


def test_minimality_cross_check(rng):
    for _ in range(200):
        r = random_regex(rng, 4)
        canonical = compile_regex(r, SIGMA)
        assert canonical.n_states == table_filling_state_count(r)


def test_witness_validity(rng):
    for _ in range(300):
        r1, r2 = random_regex(rng, 4), random_regex(rng, 4)
        v = equivalent_regex(r1, r2, SIGMA)
        if v.status is Status.NOT_EQUIVALENT:
            d1, d2 = compile_regex(r1, SIGMA), compile_regex(r2, SIGMA)
            assert simulate(d1, v.witness) != simulate(d2, v.witness)


def test_membership_preservation(rng):
    for _ in range(40):
        r = random_regex(rng, 4)
        nfa = to_nfa(r, SIGMA)
        dfa = determinize_minimize(nfa)
        for _ in range(100):
            word = "".join(rng.choice(SIGMA) for _ in range(rng.randint(0, 12)))
            assert nfa_accepts(nfa, word) == simulate(dfa, word)


def test_re_oracle_membership(rng):
    """Every word up to length 6: `re.fullmatch`, the NFA and the minimal
    DFA agree."""
    regexes = list(random_regexes(rng, 300))
    assert any(isinstance(r, Literal) for r, _ in regexes)
    assert any(isinstance(r, Star) and isinstance(r.child, Star) for r, _ in regexes)
    for r, alphabet in regexes:
        pattern = re.compile(to_pattern(r))
        nfa, dfa = to_nfa(r, alphabet), compile_regex(r, alphabet)
        for word in words(alphabet, 6):
            expected = pattern.fullmatch(word) is not None
            assert nfa_accepts(nfa, word) == expected, (print_regex(r), word)
            assert dfa.accepts(word) == expected, (print_regex(r), word)


def test_re_oracle_witnesses(rng):
    """A witness is accepted by exactly one side under `re`, and no
    shortlex-smaller word separates the pair; an equivalent pair has no
    separating word up to length 6."""
    separated = 0
    for _ in range(300):
        alphabet = ("0", "1", "2")[: rng.randint(1, 3)]
        r1, r2 = random_regex(rng, 4, alphabet), random_regex(rng, 4, alphabet)
        if rng.random() < 0.3:
            r2 = Star(r1) if rng.random() < 0.5 else Concat((r1, Star(Literal(alphabet[0]))))
        p1, p2 = re.compile(to_pattern(r1)), re.compile(to_pattern(r2))

        def separates(word):
            return (p1.fullmatch(word) is None) != (p2.fullmatch(word) is None)

        v = equivalent_regex(r1, r2, alphabet)
        if v.status is Status.EQUIVALENT:
            assert not any(separates(w) for w in words(alphabet, 6)), (print_regex(r1), print_regex(r2))
            continue
        separated += 1
        assert separates(v.witness), (print_regex(r1), print_regex(r2), v.witness)
        for word in words(alphabet, len(v.witness)):
            if word == v.witness:
                break
            assert not separates(word), (print_regex(r1), print_regex(r2), word, v.witness)
    assert 0 < separated < 300


@given(regex_asts)
def test_star_idempotence(ast):
    v = equivalent_regex(Star(Star(ast)), Star(ast), SIGMA)
    assert v.status is Status.EQUIVALENT


# --- metrics ---------------------------------------------------------------

def test_metrics_literal_over_two_symbols():
    m = dfa_metrics(compile_regex(parse_regex("0"), SIGMA))
    assert (m.node_count, m.edge_count, m.density) == (3, 4, 0.7)


def test_metrics_single_state():
    m = dfa_metrics(compile_regex(parse_regex("(1*)*"), ("1",)))
    assert (m.node_count, m.edge_count, m.density) == (1, 1, 0.0)


def test_metrics_density_unclamped():
    m = dfa_metrics(compile_regex(parse_regex("1*"), SIGMA))
    assert (m.node_count, m.edge_count, m.density) == (2, 3, 1.5)


def test_extra_alphabet_symbols_change_no_verdict():
    """A word holding a symbol that neither tree holds is rejected by both
    automata, so the shortlex-least distinguishing word never holds one:
    a verdict and its witness come from the two trees alone."""
    rng = random.Random(2024)
    for _ in range(2000):
        r1, r2 = (random_regex(rng, 4, ("0", "1", "2")) for _ in range(2))
        bare = equivalent_regex(r1, r2, ())
        wide = equivalent_regex(r1, r2, tuple("0123456789"))
        assert (bare.status, bare.witness) == (wide.status, wide.witness)
