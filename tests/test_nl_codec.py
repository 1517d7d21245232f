"""The oracle's structured-English codec: pinned bytes and exact inversion.

`describe` output is pinned by hash over a seeded corpus of every builtin
family, so a rewrite of the codec must keep every description byte for
byte; `parse_description` must read each one back to the same expression
and reject malformed text with a ValueError only.
"""

import hashlib

import pytest

from formaltrip.grammar import (
    BUILTIN_GRAMMARS,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
    infer_formalism,
)
from formaltrip.pipeline import describe, parse_description
from formaltrip.pipeline.nl_codec import NlCodecError
from formaltrip.syntax.nodes import (
    EXISTS,
    FORALL,
    And,
    Atom,
    Constant,
    Not,
    Or,
    Proposition,
    Quantified,
    Variable,
)
from formaltrip.syntax.printer import make_expression

FAMILIES = [
    ("prop", {}),
    ("ksat3", {}),
    ("fol", {}),
    ("fol", {"naming_mode": "english"}),
    ("regex", {}),
]
CORPUS_SHA256 = "905d78ad56b28c1ffeb1079552bc8e74d0e549ecb245ca1bc6b105d9686a65cc"


def _corpus():
    out = []
    for grammar_id, vocab in FAMILIES:
        grammar = BUILTIN_GRAMMARS[grammar_id]
        metric = "cfg_depth" if infer_formalism(grammar) == "regex" else "operator_total"
        records, _ = generate_dataset(
            grammar,
            VocabularyConfig(**vocab),
            GenerationConfig(
                depth=10, branching=30, sample_count=4, metric=metric, batches=1, seed=0,
            ),
        )
        out.extend(r.expression for r in records)
    return out


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def test_corpus_descriptions_are_pinned(corpus):
    assert {e.formalism for e in corpus} == {"prop", "fol", "regex"}
    text = "\n".join(describe(e) for e in corpus)
    assert len(corpus) == 588
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_SHA256


def test_corpus_descriptions_parse_back(corpus):
    for expr in corpus:
        back = parse_description(describe(expr), expr.formalism)
        assert back == expr and back.ast == expr.ast


# phrases the generated corpus seldom or never reaches: quantifiers below the
# root, blocks of several variables, atoms without terms, and constants
HAND_BUILT = [
    (
        Quantified(FORALL, ("x", "y"), Quantified(EXISTS, ("z",), Atom("r", (Variable("x"), Constant("c"))))),
        "for every x and y , there exists z such that ( predicate r of ( variable x , object c ) )",
    ),
    (
        And((Quantified(EXISTS, ("x",), Atom("p", (Variable("x"),))), Not(Atom("q", ())))),
        "( the conjunction of ( there exists x such that ( predicate p of ( variable x ) ) )"
        " and ( the negation of ( predicate q ) ) )",
    ),
    (
        Quantified(FORALL, ("x",), Or((Atom("q", ()), Quantified(FORALL, ("y",), Atom("p", (Variable("y"),)))))),
        "for every x , ( the disjunction of ( predicate q )"
        " or ( for every y , ( predicate p of ( variable y ) ) ) )",
    ),
    (Not(Atom("p", ())), "( the negation of ( predicate p ) )"),
]


@pytest.mark.parametrize("ast,text", HAND_BUILT)
def test_hand_built_fol_descriptions(ast, text):
    expr = make_expression("fol", ast)
    assert describe(expr) == text
    back = parse_description(text, "fol")
    assert back == expr and back.ast == expr.ast


def test_prop_descriptions_have_no_root_group():
    expr = make_expression("prop", Not(Proposition("p1")))
    assert describe(expr) == "the negation of ( proposition p1 )"
    back = parse_description(describe(expr), "prop")
    assert back == expr and back.ast == expr.ast


MALFORMED = [
    (text, formalism)
    for text in (
        "",
        "the",
        "proposition",
        "the conjunction of ( proposition p1 )",
        "the negation of proposition p1",
        "predicate a of ( thing b )",
        "there exists x such ( predicate a )",
        "symbol 0 symbol 1",
    )
    for formalism in ("prop", "fol", "regex")
] + [("symbol 0", "prop"), ("symbol 0", "fol"), ("proposition p1", "regex")]


@pytest.mark.parametrize("text,formalism", MALFORMED)
def test_malformed_descriptions_raise_value_error(text, formalism):
    with pytest.raises(ValueError):
        parse_description(text, formalism)


def test_codec_error_is_a_value_error():
    assert issubclass(NlCodecError, ValueError)
