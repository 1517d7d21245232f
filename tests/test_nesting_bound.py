"""The parsers' nesting bound.

Parsing, printing, the NL codec and the verifiers all recurse once or more
per nesting level, so a reply nested past Python's recursion limit used to
raise RecursionError out of `extract_formal` and cost the whole run. The
parsers now reject a formula nested deeper than MAX_NESTING as an ordinary
parse error. The bound must admit everything the built-in grammars derive
at depth 40, and every stage must still run on a formula at the bound.
"""

import random
import sys

import pytest

from formaltrip.grammar.dataset import expression_metric_value
from formaltrip.pipeline import nl_codec
from formaltrip.pipeline.providers import corrupt_expression
from formaltrip.pipeline.templates import vocabulary_block
from formaltrip.syntax import (
    FormalExpression,
    NonCompliant,
    ParseError,
    extract_formal,
    parse_expression,
    parse_fol,
    parse_prop,
    simplify_expression,
)
from formaltrip.syntax.parse import MAX_NESTING
from formaltrip.verify import ProverBudget, verify_pair

DEEP = 3000
TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"

DEEP_REPLIES = {
    "prop-parens": ("prop", "(" * DEEP + "p1" + ")" * DEEP),
    "prop-negations": ("prop", "¬" * DEEP + "p1"),
    "fol-parens": ("fol", "(" * DEEP + "pred1(p1)" + ")" * DEEP),
    "fol-quantifiers": ("fol", "∀x." * DEEP + "pred1(x)"),
    "regex-groups": ("regex", "(" * DEEP + "0" + ")" * DEEP),
    "regex-stars": ("regex", "0" + "*" * DEEP),
}


@pytest.mark.parametrize("formalism,reply", DEEP_REPLIES.values(), ids=DEEP_REPLIES)
def test_deeply_nested_reply_is_noncompliant(formalism, reply):
    assert extract_formal(reply, formalism) == NonCompliant(TOO_DEEP)


def _levels(unit: str, close: str, leaf: str, n: int) -> str:
    """`n` copies of `unit`, numbered modulo 4, around `leaf`."""
    return "".join(unit.format(i=i % 4) for i in range(n)) + leaf + close * n


# The shapes that overflowed soonest without a bound, each with canonical
# text MAX_NESTING levels deep: a '¬(' pair is two levels, '(1' with its ')*'
# also two. Below the root chain, a quantified disjunct is printed as
# '(∀ x. (... ∨ ', three levels, so 33 of them with a double negation at the
# bottom nest 2 + 3 * 32 + 2 levels. Propositions repeat so that the verifier
# stays on its truth table.
HALF = MAX_NESTING // 2
AT_BOUND = {
    "prop-negated-conjunctions": ("prop", _levels("¬(p{i} ∧ ", ")", "p9", HALF)),
    "prop-disjunctions": ("prop", _levels("(p{i} ∨ ", ")", "p9", MAX_NESTING)),
    "fol-nested-quantifiers": ("fol", _levels("∀x{i}. (pred1(x{i}) ∨ ", ")", "¬¬pred2(c1)", 33)),
    "fol-prefix": ("fol", _levels("∀x{i}. ", "", "pred1(c1)", MAX_NESTING)),
    "regex-starred-groups": ("regex", _levels("(1", ")*", "0", HALF)),
    "regex-stars": ("regex", "0" + "*" * MAX_NESTING),
}


@pytest.mark.parametrize("formalism,reply", AT_BOUND.values(), ids=AT_BOUND)
def test_every_stage_runs_at_the_bound(formalism, reply):
    expr = extract_formal(reply, formalism)
    assert isinstance(expr, FormalExpression)
    expression_metric_value(expr, "operator_total", None, None)
    vocabulary_block(expr)
    others = [simplify_expression(expr)]
    if reply == AT_BOUND["fol-prefix"][1]:
        # the corrupter's fallback negates the body of the root chain: 101 levels
        with pytest.raises(ParseError, match=TOO_DEEP):
            corrupt_expression(expr, random.Random(0))
    else:
        others.append(corrupt_expression(expr, random.Random(0)))
    back = nl_codec.parse_description(nl_codec.describe(expr), formalism)
    assert back == expr and back.ast == expr.ast
    budget = ProverBudget(max_clauses=200, max_seconds=5, max_model_domain=1)
    for other in others:
        verify_pair(formalism, expr.ast, other.ast, budget=budget)
    # one level more is refused
    deeper = "¬" + reply if formalism != "regex" else "(" + reply + ")*"
    with pytest.raises(ParseError, match=TOO_DEEP):
        parse_expression(formalism, deeper)


# The deepest derivations of the built-in grammars in a depth-40 walk: every
# rewrite opens at most two levels, as in S -> ( ¬ S ) or S -> ( S ) K.
DEPTH_40 = {
    "prop": ("prop", _levels("( ¬ ", " )", "¬ p1", 39)),
    "fol": ("fol", _levels("( ∀ x{i} . ", " )", "( ¬ pred1(x1) )", 38)),
    "regex": ("regex", _levels("(", ")*", "0*", 39)),
}


@pytest.mark.parametrize("formalism,text", DEPTH_40.values(), ids=DEPTH_40)
def test_bound_admits_depth_40_derivations(formalism, text):
    assert isinstance(parse_expression(formalism, text), FormalExpression)


# Formulas that nest within the bound as typed, but whose canonical text
# does not: below the root, the printer wraps every '∧' and '∨' and every
# quantifier in parentheses. A conjunction of 40 quantified conjuncts nests
# 40 levels as typed and 120 as printed; 50 quantified disjuncts nest 100
# as typed and 149 as printed. Each is refused like any other formula nested
# too deep, so no dataset or results line holds a text that cannot be read
# back.
PRINTED_TOO_DEEP = {
    "quantified-chain": "pred1(c) ∧ " + " ∧ ".join(f"∀ x{i}. pred1(x{i})" for i in range(1, 41)),
    "nested-quantifiers": _levels("∀x{i}. (pred1(x{i}) ∨ ", ")", "pred2(c1)", HALF),
}
QUANTIFIED_CHAIN = PRINTED_TOO_DEEP["quantified-chain"]


@pytest.mark.parametrize("reply", PRINTED_TOO_DEEP.values(), ids=PRINTED_TOO_DEEP)
def test_a_formula_whose_canonical_text_nests_too_deep_is_refused(reply):
    with pytest.raises(ParseError, match=TOO_DEEP):
        parse_expression("fol", reply)
    assert extract_formal(reply, "fol") == NonCompliant(TOO_DEEP)


# Descriptions nested past the bound, in the shapes the codec reads by
# recursion: a group per negation or star, and a quantifier body without a
# group, as `describe` writes the root chain of a first-order formula.
def _deep_descriptions(n):
    return {
        "negations": ("prop", "the negation of ( " * n + "proposition p1" + " )" * n),
        "quantifiers": ("fol", "for every x , " * n + "( predicate P of ( variable x ) )"),
        "stars": ("regex", "zero or more repetitions of ( " * n + "symbol 0" + " )" * n),
    }


@pytest.mark.parametrize("levels", [2_000, 20_000])
def test_a_description_nested_too_deep_is_a_parse_error(levels):
    for formalism, text in _deep_descriptions(levels).values():
        with pytest.raises(ParseError, match=TOO_DEEP):
            nl_codec.parse_description(text, formalism)


def test_an_interpretation_nested_too_deep_is_an_error_on_its_record():
    from formaltrip.pipeline import Completion, Provider, ProviderConfig, load_template_set
    from formaltrip.pipeline.providers import classify_prompt
    from formaltrip.pipeline.runner import round_trip
    from formaltrip.storage import dataset_record_from_json

    class DeepInterpreter(Provider):
        """The perfect oracle, except that it describes every formula as a
        negation nested 2,000 levels deep."""

        def complete(self, prompt):
            if classify_prompt(prompt).direction == "interpret":
                return Completion(_deep_descriptions(2_000)["negations"][1])
            return super().complete(prompt)

    record = dataset_record_from_json({
        "id": "r0", "formalism": "prop", "grammar_id": "prop", "batch_index": 0,
        "category_metric": "cfg_depth", "category_value": 2, "expression": "¬p1",
        "cfg_depth": 2, "vocabulary": {}, "seed": 1,
    })
    provider = DeepInterpreter(ProviderConfig(kind="perfect_oracle"))
    out = round_trip(record, provider, load_template_set("prop", 0))
    assert out.error == f"ParseError: {TOO_DEEP}"
    assert not out.raw_reply and out.verdict_status is None


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


AT_BOUND_LOGIC = {
    "negations": (parse_prop, "¬" * MAX_NESTING + "p1"),
    "parentheses": (parse_prop, "(" * MAX_NESTING + "p1 ∧ p2" + ")" * MAX_NESTING),
    "negated-groups": (parse_prop, "¬(" * HALF + "p1" + ")" * HALF),
    "quantifier-bodies": (parse_fol, "∀x. " * MAX_NESTING + "pred1(x, c)"),
    "quantified-groups": (parse_fol, "∃y. (" * HALF + "pred1(y, c)" + ")" * HALF),
}


@pytest.mark.parametrize("parse,text", AT_BOUND_LOGIC.values(), ids=AT_BOUND_LOGIC)
def test_the_logic_parser_needs_no_stack_per_level(parse, text):
    # a parser that recursed per level would need hundreds of frames here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 30)
    try:
        tree = parse(text)
    finally:
        sys.setrecursionlimit(limit)
    assert tree == parse(text)
