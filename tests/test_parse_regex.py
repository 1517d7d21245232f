import pytest

from formaltrip.syntax import Concat, Literal, ParseError, Star, parse_regex


def test_star_binds_tighter_than_concat():
    ast = parse_regex("2(01)*2", {"0", "1", "2"})
    assert ast == Concat(
        (
            Literal("2"),
            Star(Concat((Literal("0"), Literal("1")))),
            Literal("2"),
        )
    )


def test_star_on_single_symbol():
    assert parse_regex("1*11*") == Concat(
        (Star(Literal("1")), Literal("1"), Star(Literal("1")))
    )


def test_single_symbol():
    assert parse_regex("0") == Literal("0")


def test_star_of_star_is_kept():
    assert parse_regex("1**") == Star(Star(Literal("1")))
    assert parse_regex("(1*)*") == Star(Star(Literal("1")))


def test_redundant_group_removed():
    assert parse_regex("(0)") == Literal("0")
    assert parse_regex("(01)") == Concat((Literal("0"), Literal("1")))


def test_nested_concat_flattens():
    assert parse_regex("(01)1") == Concat((Literal("0"), Literal("1"), Literal("1")))


@pytest.mark.parametrize(
    "text",
    ["", "*1", "(01", "01)", "0+1", "0|1", "0?", "1∗"],
)
def test_rejected(text):
    with pytest.raises(ParseError):
        parse_regex(text)


def test_alphabet_is_enforced():
    with pytest.raises(ParseError):
        parse_regex("2", {"0", "1"})
    assert parse_regex("2", {"0", "1", "2"}) == Literal("2")


def test_an_empty_group_is_rejected():
    with pytest.raises(ParseError, match="empty group"):
        parse_regex("()")
