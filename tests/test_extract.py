import random

import pytest

from formaltrip.syntax import (
    And,
    NonCompliant,
    Not,
    Or,
    Proposition,
    extract_formal,
    parse_expression,
)
from formaltrip.syntax.printer import print_logic, print_regex
from conftest import random_fol, random_prop, random_regex
from formaltrip.syntax.printer import print_fol


def test_clean_input_passes_through():
    out = extract_formal("p1 ∧ p2", "prop")
    assert out.ast == And((Proposition("p1"), Proposition("p2")))


def test_formula_after_prose_line():
    out = extract_formal("Here is the formula:\n(p2 ∨ p3) ∧ ¬¬p2", "prop")
    assert out.ast == And(
        (Or((Proposition("p2"), Proposition("p3"))), Not(Not(Proposition("p2"))))
    )


def test_pure_prose_is_noncompliant():
    out = extract_formal("I cannot determine the formula.", "prop")
    assert isinstance(out, NonCompliant)
    assert out.reason


def test_refusal_text_is_noncompliant():
    out = extract_formal("I cannot help with that request.", "prop")
    assert isinstance(out, NonCompliant)


def test_code_fence_is_stripped():
    out = extract_formal("Sure!\n```\n(p1 ∨ p2)\n```", "prop")
    assert out.canonical_text == "(p1 ∨ p2)"


def test_last_formula_wins():
    reply = "First attempt: p1 ∧ p2\nActually the correct formula is:\np1 ∨ p2"
    out = extract_formal(reply, "prop")
    assert out.canonical_text == "(p1 ∨ p2)"


def test_formula_embedded_mid_sentence():
    out = extract_formal("The answer is (p1 ∧ ¬p2) as requested.", "prop")
    assert out.canonical_text == "(p1 ∧ ¬p2)"


def test_regex_after_colon():
    out = extract_formal("The regex is: 0", "regex")
    assert out.canonical_text == "0"


def test_regex_typographic_star():
    out = extract_formal("1∗11∗", "regex")
    assert out.canonical_text == "1*11*"


def test_fol_reply():
    out = extract_formal("The formula is:\n∃ x1. ¬pred2(p4)", "fol")
    assert out.canonical_text == "∃ x1. ¬pred2(p4)"


def test_never_misparses_canonical_strings():
    rng = random.Random(99)
    for _ in range(200):
        text = print_logic(random_prop(rng))
        direct = parse_expression("prop", text)
        out = extract_formal(text, "prop")
        assert out == direct and out.ast == direct.ast
    for _ in range(200):
        text = print_regex(random_regex(rng))
        direct = parse_expression("regex", text)
        out = extract_formal(text, "regex")
        assert out == direct and out.ast == direct.ast
    for _ in range(200):
        text = print_fol(random_fol(rng))
        direct = parse_expression("fol", text)
        out = extract_formal(text, "fol")
        assert out == direct and out.ast == direct.ast


@pytest.mark.parametrize(
    "formalism,reply",
    [
        ("prop", "¬ " * 3000 + "p1"),
        ("prop", "p1 ∧ ∧ p2"),
        ("prop", "This is hard and I am not sure."),
        ("prop", "Comparing structure and operators."),
        ("prop", "or"),
    ],
    ids=["3000-negations", "doubled-and", "prose-hard", "prose-comparing", "keyword"],
)
def test_malformed_formula_or_prose_is_noncompliant(formalism, reply):
    assert isinstance(extract_formal(reply, formalism), NonCompliant)


@pytest.mark.parametrize(
    "formalism,reply,canonical",
    [
        ("prop", "The answer is p1 ∧ p2.", "(p1 ∧ p2)"),
        ("regex", "The regex is 0(1)* and nothing else", "01*"),
        ("prop", "Let me work through it.\n```\n(p1 ∨ ¬p2)\n```\nI hope this is clear and correct.",
         "(p1 ∨ ¬p2)"),
        ("fol", "∀ x1. pred1(x1) is the formula", "∀ x1. pred1(x1)"),
        ("prop", "I think it is (p1 ∨ p2), i.e. the formula.", "(p1 ∨ p2)"),
    ],
)
def test_prose_wrapped_formula_is_extracted(formalism, reply, canonical):
    assert extract_formal(reply, formalism).canonical_text == canonical


def test_parse_attempts_are_linear_in_lines(monkeypatch):
    from formaltrip.syntax import parse

    calls = []
    parse_logic = parse._parse_logic

    def counting(text, fol):
        calls.append(text)
        return parse_logic(text, fol)

    monkeypatch.setattr(parse, "_parse_logic", counting)
    words = "we compare the two sides and find that one or the other holds".split()
    lines = [
        "Step " + str(i) + ": " + " ".join(words[j % len(words)] for j in range(58))
        for i in range(20)
    ]
    assert all(len(line.split()) == 60 for line in lines)
    out = extract_formal("\n".join(lines), "prop")
    assert len(calls) <= 1 + 3 * len(lines)
    assert isinstance(out, NonCompliant)
