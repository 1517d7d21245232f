"""Regex equivalence and DFA metrics.

Both sides go through Glushkov's position automaton, which has no
epsilon moves, and the subset construction, which yields a complete DFA
(the empty subset is the dead state).
Equivalence is a breadth-first search over the product of the two DFAs,
symbols in ascending order: the first state pair where exactly one side
accepts gives the shortlex-least word in the symmetric difference, and
none means the languages are equal. The DFA metrics use canonical minimal
DFAs: Moore partition refinement, the blocks numbered breadth-first from
the start block in the same pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import product

from ..syntax.nodes import Concat, Literal, RegexAst, Star, symbols
from .verdict import EquivalenceVerdict, equivalent, not_equivalent


class AlphabetMismatch(ValueError):
    pass


@dataclass
class Nfa:
    n_states: int
    alphabet: tuple[str, ...]
    transitions: set[tuple[int, str, int]]  # (source, symbol, target)
    start: int
    accepting: frozenset[int]


@dataclass(frozen=True)
class Dfa:
    """Complete DFA: the transition function is total over the alphabet."""

    n_states: int
    alphabet: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]  # [state][symbol_index] -> state
    start: int
    accepting: frozenset[int]

    def accepts(self, word: str) -> bool:
        index = {sym: i for i, sym in enumerate(self.alphabet)}
        state = self.start
        for ch in word:
            state = self.transitions[state][index[ch]]
        return state in self.accepting


@dataclass
class DfaMetrics:
    node_count: int
    edge_count: int
    density: float  # |E| / (|V| * (|V|-1)), rounded to the nearest tenth; 0.0 if |V|=1


# ---------------------------------------------------------------------------
# Glushkov's position automaton

def to_nfa(regex: RegexAst, alphabet) -> Nfa:
    """The position automaton: state 0 is the start and state i the i-th
    literal in pre-order, so every transition into state i reads literal
    i's symbol. One walk gives each node's (nullable, first, last) and adds
    the follow pairs: a star links its last positions to its first, and a
    concatenation links each child's last to the next child's first,
    carrying across nullable children."""
    alphabet = tuple(sorted(set(alphabet)))
    symbols = [""]  # symbols[i] is the symbol of position i
    follow: set[tuple[int, int]] = set()

    def positions(node: RegexAst) -> tuple[bool, set[int], set[int]]:
        if isinstance(node, Literal):
            if node.symbol not in alphabet:
                raise AlphabetMismatch(f"literal {node.symbol!r} outside alphabet")
            symbols.append(node.symbol)
            return False, {len(symbols) - 1}, {len(symbols) - 1}
        if isinstance(node, Star):
            _, first, last = positions(node.child)
            follow.update(product(last, first))
            return True, first, last
        if isinstance(node, Concat):
            nullable, first, last = True, set(), set()
            for child in node.children:
                child_nullable, child_first, child_last = positions(child)
                follow.update(product(last, child_first))
                if nullable:
                    first |= child_first
                last = last | child_last if child_nullable else child_last
                nullable = nullable and child_nullable
            return nullable, first, last
        raise TypeError(f"not a regex node: {node!r}")

    nullable, first, last = positions(regex)
    follow.update((0, j) for j in first)
    return Nfa(
        n_states=len(symbols),
        alphabet=alphabet,
        transitions={(i, symbols[j], j) for i, j in follow},
        start=0,
        accepting=frozenset(last | {0}) if nullable else frozenset(last),
    )


def nfa_accepts(nfa: Nfa, word: str) -> bool:
    step: dict[tuple[int, str], list[int]] = {}
    for src, label, dst in nfa.transitions:
        step.setdefault((src, label), []).append(dst)
    current = {nfa.start}
    for ch in word:
        current = {t for s in current for t in step.get((s, ch), ())}
        if not current:
            return False
    return bool(current & nfa.accepting)


# ---------------------------------------------------------------------------
# determinization and canonical minimization

def determinize_minimize(nfa: Nfa) -> Dfa:
    return _minimize(_determinize(nfa))


def _number(start, successors) -> tuple[list, list[tuple[int, ...]]]:
    """The states reachable from start, numbered breadth-first from 0 with
    each state's successors in the order `successors(state)` lists them,
    and each state's row of successor numbers."""
    index = {start: 0}
    order = [start]
    rows = []
    for state in order:  # order grows as new states are met
        row = []
        for target in successors(state):
            if target not in index:
                index[target] = len(order)
                order.append(target)
            row.append(index[target])
        rows.append(tuple(row))
    return order, rows


def _determinize(nfa: Nfa) -> Dfa:
    # per NFA state and per symbol, the states one step away; a subset's
    # successor is the union of its members' moves
    empty: frozenset[int] = frozenset()
    symbol_index = {sym: k for k, sym in enumerate(nfa.alphabet)}
    moves: dict[int, list[frozenset[int]]] = {}
    for src, label, dst in nfa.transitions:
        row = moves.setdefault(src, [empty] * len(nfa.alphabet))
        row[symbol_index[label]] |= {dst}

    def successors(subset):
        members = [moves[s] for s in subset if s in moves]
        return [empty.union(*[m[k] for m in members]) for k in range(len(nfa.alphabet))]

    # the empty subset, if reachable, already acts as the dead state
    order, rows = _number(frozenset({nfa.start}), successors)
    return Dfa(
        n_states=len(order),
        alphabet=nfa.alphabet,
        transitions=tuple(rows),
        start=0,
        accepting=frozenset(i for i, subset in enumerate(order) if subset & nfa.accepting),
    )


def _minimize(dfa: Dfa) -> Dfa:
    """The minimal DFA, its states numbered breadth-first from the start,
    symbols in alphabet order. Moore refinement starts from accepting versus
    rejecting; every state of a subset-construction DFA is reachable."""
    block = [0 if s in dfa.accepting else 1 for s in range(dfa.n_states)]
    n_blocks = len(set(block))
    while True:
        signatures: dict[tuple, int] = {}
        block = [
            signatures.setdefault((block[s],) + tuple(block[t] for t in row), len(signatures))
            for s, row in enumerate(dfa.transitions)
        ]
        if len(signatures) == n_blocks:
            break
        n_blocks = len(signatures)
    representative = {b: s for s, b in enumerate(block)}  # any member: blocks are stable
    order, rows = _number(block[dfa.start],
                          lambda b: [block[t] for t in dfa.transitions[representative[b]]])
    return Dfa(
        n_states=len(rows),
        alphabet=dfa.alphabet,
        transitions=tuple(rows),
        start=0,
        accepting=frozenset(i for i, b in enumerate(order) if representative[b] in dfa.accepting),
    )


def compile_regex(regex: RegexAst, alphabet) -> Dfa:
    return determinize_minimize(to_nfa(regex, alphabet))


# ---------------------------------------------------------------------------
# equivalence and metrics

def equivalent_regex(r1: RegexAst, r2: RegexAst, alphabet=()) -> EquivalenceVerdict:
    """Equivalent, or not with the shortlex-least distinguishing word."""
    if r1 == r2:
        return equivalent()
    sigma = {*alphabet, *symbols(r1).regex, *symbols(r2).regex}
    witness = _shortest_difference(_determinize(to_nfa(r1, sigma)), _determinize(to_nfa(r2, sigma)))
    return equivalent() if witness is None else not_equivalent(witness=witness)


def _shortest_difference(d1: Dfa, d2: Dfa) -> str | None:
    """BFS over the product automaton for the shortlex-least word accepted
    by exactly one DFA; None when there is none."""
    start = (d1.start, d2.start)
    parents: dict[tuple[int, int], tuple[tuple[int, int], str] | None] = {start: None}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        s1, s2 = pair
        if (s1 in d1.accepting) != (s2 in d2.accepting):
            word = []
            cursor = pair
            while parents[cursor] is not None:
                cursor, sym = parents[cursor]
                word.append(sym)
            return "".join(reversed(word))
        for a, sym in enumerate(d1.alphabet):
            nxt = (d1.transitions[s1][a], d2.transitions[s2][a])
            if nxt not in parents:
                parents[nxt] = (pair, sym)
                queue.append(nxt)
    return None


def dfa_metrics(dfa: Dfa) -> DfaMetrics:
    edges = {
        (s, dfa.transitions[s][a])
        for s in range(dfa.n_states)
        for a in range(len(dfa.alphabet))
    }
    v = dfa.n_states
    e = len(edges)
    density = 0.0 if v == 1 else round(e / (v * (v - 1)), 1)
    return DfaMetrics(node_count=v, edge_count=e, density=density)

