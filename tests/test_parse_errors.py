"""The parse-error contract of the logic parsers.

`extract_formal` writes `str(error)` into results files as a record's
non-compliance reason, so the exception type, message, `position` and
`expected` of each rejection are part of the output and pinned here.
"""

import pytest

from formaltrip.syntax import ArityError, NonCompliant, ParseError, extract_formal, parse_fol, parse_prop

# (formalism, text, exception type, str(error), position, expected)
ERRORS = [
    ("prop", "p1 # p2", ParseError, "unexpected character '#'", 3, ""),
    ("prop", "p1 → p2", ParseError, "operator '→' is not part of the grammar", 3, ""),
    ("prop", "p1 = p2", ParseError, "operator '=' is not part of the grammar", 3, ""),
    ("prop", "p1 ? p2", ParseError, "operator '?' is not part of the grammar", 3, ""),
    ("prop", "¬¬p1 ⇔ p2", ParseError, "operator '⇔' is not part of the grammar", 5, ""),
    # a stray character or rejected operator wins over an earlier syntax error
    ("prop", "p1 p2 #", ParseError, "unexpected character '#'", 6, ""),
    ("fol", "pred1() → p1", ParseError, "operator '→' is not part of the grammar", 8, ""),
    ("prop", "(p1 ∧ p2", ParseError, "expected ')'", 8, ")"),
    ("prop", "((p1)", ParseError, "expected ')'", 5, ")"),
    ("prop", "p1 p2", ParseError, "trailing input 'p2'", 3, "end of input"),
    ("prop", "(p1 ∧ p2))", ParseError, "trailing input ')'", 9, "end of input"),
    ("prop", "p1 . p2", ParseError, "trailing input '.'", 3, "end of input"),
    ("prop", "p1 ∧", ParseError, "unexpected end of input", 4, "formula"),
    ("prop", "¬", ParseError, "unexpected end of input", 1, "formula"),
    ("prop", "p1 ∧ (", ParseError, "unexpected end of input", 6, "formula"),
    ("prop", "∨ p1", ParseError, "unexpected '∨'", 0, "atom"),
    ("prop", "p1 ∧ ∧ p2", ParseError, "unexpected '∧'", 5, "atom"),
    # a connective or quantifier keyword is not an atom name
    ("prop", "or", ParseError, "unexpected 'or'", 0, "atom"),
    ("prop", "and", ParseError, "unexpected 'and'", 0, "atom"),
    ("prop", "all", ParseError, "unexpected 'all'", 0, "atom"),
    ("prop", "exists", ParseError, "unexpected 'exists'", 0, "atom"),
    ("fol", "pred1(p1) ∧ or", ParseError, "unexpected 'or'", 12, "atom"),
    ("prop", "", ParseError, "empty input", 0, "formula"),
    ("prop", "   ", ParseError, "empty input", 0, "formula"),
    ("fol", "∀. pred1(p1)", ParseError, "quantifier binds no variables", 0, "variable list"),
    ("fol", "∀ ∃ x1. pred1(x1)", ParseError, "quantifier binds no variables", 0, "variable list"),
    ("fol", "pred1(p1", ParseError, "unexpected end of input", 8, "expression"),
    ("fol", "pred1()", ParseError, "expected term, got ')'", 6, "term"),
    ("fol", "pred1(p1,)", ParseError, "expected term, got ')'", 9, "term"),
    ("fol", "pred1(p1 p2)", ParseError, "expected ',' or ')', got 'p2'", 9, ", or )"),
    ("fol", "pred1(p1; p2)", ParseError, "unexpected character ';'", 8, ""),
    ("fol", "x1 = x2", ParseError, "operator '=' is not part of the grammar", 3, ""),
    ("fol", "pred1(p1) ≠ pred2(p2)", ParseError, "operator '≠' is not part of the grammar", 10, ""),
    ("fol", "∀ x1. pred1(x1) pred2(x1)", ParseError, "trailing input 'pred2'", 16, "end of input"),
    ("fol", "∃ x1 .", ParseError, "unexpected end of input", 6, "formula"),
    ("fol", "pred1(p1) ∧ pred1(p1, p2)", ArityError,
     "predicate 'pred1' used with arity 2, expected 1", 0, 1),
    ("fol", "∀x. pred2(x, p1) ∨ ∃y. pred2(y)", ArityError,
     "predicate 'pred2' used with arity 1, expected 2", 0, 2),
]


@pytest.mark.parametrize("formalism,text,kind,message,position,expected", ERRORS)
def test_parse_error_contract(formalism, text, kind, message, position, expected):
    parse = parse_prop if formalism == "prop" else parse_fol
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    error = excinfo.value
    assert type(error) is kind
    assert str(error) == message
    assert error.position == position
    assert error.expected == expected


@pytest.mark.parametrize(
    "formalism,reply,reason",
    [
        ("prop", "I cannot determine the formula.", "trailing input 'cannot'"),
        ("prop", "→ ⇒ ⇔", "operator '→' is not part of the grammar"),
        ("prop", "(∧ ∨)", "unexpected '∧'"),
        ("prop", "", "empty input"),
        ("prop", "or", "unexpected 'or'"),
        ("prop", "Comparing structure and operators.", "trailing input 'structure'"),
        ("fol", "I refuse.", "trailing input 'refuse'"),
        ("fol", "∀ .", "quantifier binds no variables"),
        ("regex", "(01", "unbalanced parenthesis"),
    ],
)
def test_noncompliant_reason_is_the_whole_reply_error(formalism, reply, reason):
    assert extract_formal(reply, formalism) == NonCompliant(reason)
