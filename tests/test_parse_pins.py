"""Pinned outcomes of the logic parsers on malformed and deep text.

`tests/data/parse_pins.jsonl` holds one row per text of `pinned_texts()`,
in order: what `parse_prop` or `parse_fol` makes of it. A text that parses
is pinned by its canonical text and a digest of the tree's repr, which
tells a Variable from a Constant of one name; a text that does not is
pinned by the error's type, message, position and expected value. The
texts are about 2,000 seeded token-level mutations of propositional and
first-order formulas (tokens inserted, deleted, replaced and the text
truncated, with keywords, '=', '#', ',' and '.' among the inserts) and
negations, parentheses and quantifier bodies nested 99, 100, 101 and 150
levels deep. The outcomes were recorded before the parser's internals were
rewritten and must not change with them.

Run `python tests/test_parse_pins.py` to write the table again.
"""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from conftest import random_fol, random_prop
from formaltrip.syntax import ParseError, canonical_text, parse_fol, parse_prop

PINS = Path(__file__).parent / "data" / "parse_pins.jsonl"

INSERTS = [
    "¬", "∧", "∨", "∀", "∃", "(", ")", ".", ",", "=", "#", "→", "*", "?",
    "not", "and", "or", "forall", "exists", "all", "NOT", "&", "|", "~", "!",
    "x1", "x2", "y", "p1", "p2", "pred1", "pred2",
]
# first-order shapes that random_fol does not make: quantifiers below the
# root, several variables in one block, a body without a dot, ASCII words
FOL_SHAPES = [
    "(pred1(p1) ∧ ∀ x1. (pred2(x1, p2) ∨ ¬pred1(x1)))",
    "∀ x y. pred2(x, y) ∨ ∃ z. pred1(z)",
    "∀x1 pred3(p5, x1) ∧ pred1(x1)",
    "forall x1 . exists x2 . (pred2(x1, x2) and not pred1(x2))",
    "¬∃ x1. (pred1(x1) ∧ ∀ x2. pred2(x2, x1))",
    "(∀ x1. pred1(x1)) ∨ pred1(x1)",
]
PROP_SHAPES = [
    "p1 & !p2 | ~(p3 && p4) || not p5",
    "((p1)) ∧ ((p2 ∨ p3) ∨ p4)",
    "¬¬(p1 ∧ p2 ∧ (p3 ∧ p4))",
]
DEPTHS = (99, 100, 101, 150)


def _tokens(text: str) -> list[str]:
    return re.findall(r"\w+|\S", text)


def _mutate(rng: random.Random, text: str) -> str:
    toks = _tokens(text)
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        op = rng.randrange(3)
        i = rng.randint(0, len(toks))
        if op == 0 or not toks:
            toks.insert(i, rng.choice(INSERTS))
        elif op == 1:
            del toks[min(i, len(toks) - 1)]
        else:
            toks[min(i, len(toks) - 1)] = rng.choice(INSERTS)
    if len(toks) > 1 and rng.random() < 0.2:
        toks = toks[: rng.randrange(1, len(toks))]
    return (" " if rng.random() < 0.7 else "").join(toks)


def _deep_texts() -> list[tuple[str, str]]:
    texts = []
    for n in DEPTHS:
        for formalism, leaf in (("prop", "p1"), ("fol", "pred1(x1)")):
            texts += [
                (formalism, "¬" * n + leaf),
                (formalism, "(" * n + leaf + ")" * n),
                (formalism, "(¬" * n + leaf + ")" * n),
                (formalism, "(" * n + leaf + ")" * (n - 1)),
                (formalism, "(" * n + leaf + " ∧ " + leaf + ")" * n),
            ]
        texts += [
            ("fol", "∀ x1. " * n + "pred1(x1)"),
            ("fol", "∀ x1. (" * n + "pred1(x1)" + ")" * n),
            ("fol", "(∃ x1. " * n + "pred1(x1)" + ")" * n),
            ("fol", "∀ x1. ¬" * n + "pred1(x1)"),
            ("fol", "¬∀ x1. " * n + "pred1(x1) ∧ pred1(p1)"),
            ("prop", "p1 ∨ " + "(p2 ∧ " * n + "p3" + ")" * n),
        ]
    return texts


def pinned_texts() -> list[tuple[str, str]]:
    """Every (formalism, text) of the table, in order."""
    rng = random.Random(0x5EED)
    texts = []
    for _ in range(1000):
        if rng.random() < 0.2:
            base = rng.choice(PROP_SHAPES)
        else:
            base = canonical_text("prop", random_prop(rng, max_depth=3))
        texts.append(("prop", _mutate(rng, base)))
    for _ in range(1000):
        if rng.random() < 0.3:
            base = rng.choice(FOL_SHAPES)
        else:
            base = canonical_text("fol", random_fol(rng, max_depth=3))
        texts.append(("fol", _mutate(rng, base)))
    return texts + _deep_texts()


def outcome(formalism: str, text: str) -> list:
    parse = parse_prop if formalism == "prop" else parse_fol
    try:
        tree = parse(text)
    except ParseError as error:
        return [type(error).__name__, str(error), error.position, error.expected]
    digest = hashlib.sha256(repr(tree).encode()).hexdigest()[:16]
    return ["ok", canonical_text(formalism, tree), digest]


def _rows() -> list[tuple[str, str, list]]:
    pins = [json.loads(line) for line in PINS.read_text(encoding="utf-8").splitlines()]
    texts = pinned_texts()
    assert len(pins) == len(texts)
    return [(f, text, pin) for (f, text), pin in zip(texts, pins)]


def test_the_table_holds_both_outcomes():
    kinds = [pin[0] for _, _, pin in _rows()]
    assert {"ok", "ParseError", "ArityError"} <= set(kinds)
    assert kinds.count("ok") > 400


@pytest.mark.parametrize("formalism", ["prop", "fol"])
def test_every_text_parses_or_fails_as_pinned(formalism):
    for f, text, expected in _rows():
        if f == formalism:
            assert outcome(f, text) == expected, text


if __name__ == "__main__":
    PINS.write_text(
        "".join(
            json.dumps(outcome(f, t), ensure_ascii=False) + "\n"
            for f, t in pinned_texts()
        ),
        encoding="utf-8",
    )
