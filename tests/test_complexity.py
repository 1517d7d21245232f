import random
import re
from types import SimpleNamespace

from conftest import random_prop
from formaltrip.grammar.dataset import COUNT_METRICS, expression_metric_value
from formaltrip.syntax import parse_expression
from formaltrip.syntax.printer import print_logic


def profile(text, formalism="prop"):
    expr = parse_expression(formalism, text)
    return SimpleNamespace(**{m: expression_metric_value(expr, m, None, None) for m in COUNT_METRICS})


def test_mixed_operator_counts():
    p = profile("(p1 ∨ ¬p2 ∨ ¬p3) ∧ (p4 ∨ p5 ∨ p6)")
    assert (p.and_count, p.or_count, p.not_count, p.operator_total) == (1, 4, 2, 7)


def test_atom_counts_zero():
    p = profile("p1")
    assert p.operator_total == 0


def test_double_negation_counts_twice():
    p = profile("¬¬p2")
    assert (p.not_count, p.operator_total) == (2, 2)


def test_nary_counts_match_binary_form():
    # k children contribute k-1 operators either way
    flat = profile("(p1 ∧ p2 ∧ p3)")
    nested = profile("((p1 ∧ p2) ∧ p3)")
    assert flat.and_count == nested.and_count == 2


def test_fol_quantifiers_not_counted():
    p = profile("∀ x1. ¬pred1(x1)", "fol")
    assert (p.not_count, p.operator_total) == (1, 1)


def test_regex_total_is_star_count():
    p = profile("1*1(01)**", "regex")
    assert p.operator_total == 3


def test_total_equals_glyphs_in_canonical_print():
    rng = random.Random(5)
    for _ in range(300):
        ast = random_prop(rng)
        expr = parse_expression("prop", print_logic(ast))
        glyphs = len(re.findall(r"[∧∨¬]", expr.canonical_text))
        assert expression_metric_value(expr, "operator_total", None, None) == glyphs
