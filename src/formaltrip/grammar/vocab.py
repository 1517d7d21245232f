"""Vocabulary configuration and placeholder instantiation.

A leaf sentential form becomes a concrete expression by replacing
placeholder terminals with vocabulary draws: `v` with a proposition,
`Σ` with an alphabet symbol, `p` with a grounded predicate, and each
quantifier's `f` with a fresh variable. Argument slots of a grounded
predicate become an in-scope variable with probability
`free_variable_prob`; when no quantifier is in scope a fresh outermost
quantifier of random kind is prepended once, unless that would exceed
`max_free_variables`, in which case the slot keeps an object.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..syntax import FormalExpression, parse_expression
from . import words
from .cfg import GRAMMAR_FORMALISM
from .derive import DerivationNode

SYNTHETIC = "synthetic"
ENGLISH = "english"


class VocabularyExhausted(RuntimeError):
    pass


@dataclass
class VocabularyConfig:
    num_propositions: int = 12
    num_predicates: int = 8
    num_objects: int = 12
    min_predicate_arity: int = 1
    max_predicate_arity: int = 2
    free_variable_prob: float = 0.25
    max_free_variables: int | None = None  # None = unbounded
    alphabet_size: int = 2
    naming_mode: str = SYNTHETIC

    def __post_init__(self):
        if not 0.0 <= self.free_variable_prob <= 1.0:
            raise ValueError("free_variable_prob must be within [0, 1]")
        if not 1 <= self.min_predicate_arity <= self.max_predicate_arity:
            raise ValueError("need 1 <= min_predicate_arity <= max_predicate_arity")
        for name in ("num_propositions", "num_predicates", "num_objects", "alphabet_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.alphabet_size > 10:
            raise ValueError("alphabet symbols are single digits; alphabet_size <= 10")
        if self.naming_mode not in (SYNTHETIC, ENGLISH):
            raise ValueError(f"unknown naming_mode {self.naming_mode!r}")


@dataclass
class RealizedVocabulary:
    """Concrete names with per-dataset predicate arities fixed up front."""

    propositions: tuple[str, ...]
    objects: tuple[str, ...]
    predicates: dict[str, int]  # name -> arity
    alphabet: tuple[str, ...]

    def snapshot(self) -> dict:
        return {
            "propositions": list(self.propositions),
            "objects": list(self.objects),
            "predicates": dict(self.predicates),
            "alphabet": list(self.alphabet),
        }


def realize_vocabulary(config: VocabularyConfig, rng: random.Random) -> RealizedVocabulary:
    propositions = tuple(f"p{i}" for i in range(1, config.num_propositions + 1))
    if config.naming_mode == ENGLISH:
        if config.num_predicates > len(words.VERBS):
            raise VocabularyExhausted("not enough predicate words")
        if config.num_objects > len(words.NAMES):
            raise VocabularyExhausted("not enough object words")
        predicate_names = tuple(rng.sample(words.VERBS, config.num_predicates))
        objects = tuple(rng.sample(words.NAMES, config.num_objects))
    else:
        predicate_names = tuple(f"pred{i}" for i in range(1, config.num_predicates + 1))
        objects = tuple(f"p{i}" for i in range(1, config.num_objects + 1))
    predicates = {
        name: rng.randint(config.min_predicate_arity, config.max_predicate_arity)
        for name in predicate_names
    }
    alphabet = tuple(str(d) for d in range(config.alphabet_size))
    return RealizedVocabulary(propositions, objects, predicates, alphabet)


def instantiate(
    leaf: DerivationNode,
    realized: RealizedVocabulary,
    config: VocabularyConfig,
    rng: random.Random,
    grammar_id: str,
) -> FormalExpression:
    """Replace placeholder terminals in a terminal leaf with vocabulary draws.

    The text is parsed, which validates a rule file's output, and printed.
    A logic expression then keeps only that canonical text and rebuilds its
    tree on the first `.ast` read; a regex expression keeps its tree.
    """
    formalism = GRAMMAR_FORMALISM.get(grammar_id, grammar_id)
    if formalism not in ("prop", "fol", "regex"):
        raise ValueError(f"cannot instantiate grammar {grammar_id!r}")
    getrandbits = rng.getrandbits
    if formalism == "fol":
        text = _instantiate_fol(leaf.sentential_form, realized, config, rng)
    elif formalism == "prop":
        text = " ".join(
            _choice(realized.propositions, getrandbits) if sym == "v" else sym
            for sym in leaf.sentential_form
        )
    elif formalism == "regex":
        text = "".join(
            _choice(realized.alphabet, getrandbits) if sym == "Σ" else sym
            for sym in leaf.sentential_form
        )
    return parse_expression(formalism, text, realized.alphabet, keep_tree=False)


def _choice(seq, getrandbits):
    """`rng.choice(seq)`, drawn as `derive._draw` draws: `getrandbits` of the
    size's bit width until the value is below the size."""
    size = len(seq)
    bits = size.bit_length()
    r = getrandbits(bits)
    while r >= size:
        r = getrandbits(bits)
    return seq[r]


def _instantiate_fol(form, realized, config, rng: random.Random) -> str:
    out: list[str] = []
    frames: list[str | None] = []  # one per open '(': the variable it binds, if any
    in_scope: list[str] = []
    var_count = 0
    predicates = sorted(realized.predicates)
    getrandbits = rng.getrandbits
    prepend: list[str] | None = None  # [glyph, name] once a scope-less slot triggers

    def fresh_var() -> str:
        nonlocal var_count
        var_count += 1
        return f"x{var_count}"

    for sym in form:
        if sym == "(":
            frames.append(None)
            out.append(sym)
        elif sym == ")":
            bound = frames.pop()
            if bound is not None:
                in_scope.remove(bound)
            out.append(sym)
        elif sym == "f":
            name = fresh_var()
            if frames:
                frames[-1] = name
            in_scope.append(name)
            out.append(name)
        elif sym == "v":
            out.append(_choice(realized.propositions, getrandbits))
        elif sym == "p":
            name = _choice(predicates, getrandbits)
            arity = realized.predicates[name]
            args = []
            for _ in range(arity):
                use_var = rng.random() < config.free_variable_prob
                if use_var and in_scope:
                    args.append(_choice(in_scope, getrandbits))
                elif use_var and prepend is None:
                    if (
                        config.max_free_variables is not None
                        and var_count + 1 > config.max_free_variables
                    ):
                        args.append(_choice(realized.objects, getrandbits))
                    else:
                        glyph = _choice(("∀", "∃"), getrandbits)
                        name_v = fresh_var()
                        prepend = [glyph, name_v]
                        in_scope.append(name_v)
                        args.append(name_v)
                else:
                    args.append(_choice(realized.objects, getrandbits))
            out.append(f"{name}({', '.join(args)})")
        else:
            out.append(sym)
    text = " ".join(out)
    if prepend is not None:
        text = f"{prepend[0]} {prepend[1]} . {text}"
    return text
