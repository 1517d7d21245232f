"""Recover a formal expression from free-form LLM output.

Replies commonly explain first and put the formula at the end, possibly in
a code fence or after a colon. LaTeX commands, typographic stars, `$` and
backticks (code-fence markers too) are normalized first. Then:

1. the whole reply is parsed; if nothing below is accepted, its parse
   error is the non-compliance reason;
2. each line, bottom-up, offers at most three candidates, in order: the
   whole line, the text after its last colon, and the span from its first
   formula word to its last.

A line candidate loses trailing `.`, `,` and `;`, and is accepted only if it
contains a formula word and parses. For logic, a formula word is a
whitespace-separated word holding a connective or quantifier of the
parser's token table, a parenthesis, or a machine-made atom (`p7`,
`pred3(...)`, `x1`); for regex, a word made only of alphabet symbols,
parentheses and `*`, trailing punctuation aside. Prose around a formula is cut
off; prose alone, or a malformed formula, is non-compliant rather than read
as a fragment of itself. A reply costs at most 1 + 3 × lines parse attempts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .nodes import REGEX, FormalExpression
from .parse import _LOGIC_TOKEN, _WORD_CLASS, DIGIT_ALPHABET, ParseError, parse_expression


@dataclass(frozen=True)
class NonCompliant:
    """No formal expression could be recovered; carries the parse error."""

    reason: str


_LATEX_MAP = {
    r"\land": "∧", r"\wedge": "∧", r"\lor": "∨", r"\vee": "∨",
    r"\neg": "¬", r"\lnot": "¬", r"\forall": "∀", r"\exists": "∃",
    r"\ast": "*", r"\cdot": "",
}
# typographic lookalikes seen in model output
_GLYPH_MAP = {"∗": "*", "⋆": "*", " ": " "}

# logic tokens that mark a formula word: connectives, quantifiers, parentheses
_LOGIC_MARKS = frozenset(_WORD_CLASS) | {"(", ")"}
_MACHINE_ATOM = re.compile(r"(?:p|pred|x)\d+")
_REGEX_MARKS = frozenset("()*")
_TRAILING = ".,;"  # sentence punctuation after a formula


def _clean(text: str) -> str:
    for src, dst in _LATEX_MAP.items():
        text = text.replace(src, dst)
    for src, dst in _GLYPH_MAP.items():
        text = text.replace(src, dst)
    return text.replace("$", " ").replace("`", " ")


def extract_formal(
    text: str, formalism: str, alphabet: set[str] | None = None
) -> FormalExpression | NonCompliant:
    """Parse an LLM reply into a FormalExpression, or report non-compliance."""
    cleaned = _clean(text)
    try:
        return parse_expression(formalism, cleaned.strip(), alphabet)
    except ParseError as e:
        reason = str(e)

    is_formula_word = _formula_word_test(formalism, alphabet)
    for line in reversed(cleaned.splitlines()):
        words = line.split()
        marked = [i for i, word in enumerate(words) if is_formula_word(word)]
        if not marked:
            continue
        candidates = (line, line.rpartition(":")[2], " ".join(words[marked[0] : marked[-1] + 1]))
        for candidate in dict.fromkeys(c.strip().rstrip(_TRAILING).strip() for c in candidates):
            if any(map(is_formula_word, candidate.split())):
                try:
                    return parse_expression(formalism, candidate, alphabet)
                except ParseError:
                    pass
    return NonCompliant(reason)


def _formula_word_test(formalism: str, alphabet):
    """The predicate that tells a formula word of `formalism` from prose."""
    if formalism == REGEX:
        marks = _REGEX_MARKS | (DIGIT_ALPHABET if alphabet is None else frozenset(alphabet))

        def is_formula_word(word: str) -> bool:
            word = word.rstrip(_TRAILING)
            return word != "" and marks.issuperset(word)

        return is_formula_word
    return lambda word: any(
        tok in _LOGIC_MARKS or _MACHINE_ATOM.fullmatch(tok) for tok in _LOGIC_TOKEN.findall(word)
    )
