"""Prompt templates and deterministic rendering.

Templates are plain-text assets, one per (formalism, direction, shots).
Interpret prompts carry a dynamic vocabulary block enumerating exactly
the symbols of the target formula; compile prompts deliberately name no
symbols (the description must carry them), which is what keeps the two
halves of a round trip isolated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources

from ..syntax.nodes import FormalExpression, symbols

INTERPRET = "interpret"
COMPILE = "compile"
JUDGE_COT = "judge_cot"
JUDGE_YESNO = "judge_yesno"


class MissingPlaceholder(KeyError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    formalism: str
    direction: str
    shot_count: int
    text: str

    @property
    def placeholders(self) -> frozenset[str]:
        return frozenset(re.findall(r"\{(\w+)\}", self.text))


def _asset(name: str) -> str:
    return resources.files("formaltrip.pipeline").joinpath("assets", name).read_text(
        encoding="utf-8"
    )


def load_template(formalism: str, direction: str, shot_count: int = 0) -> PromptTemplate:
    if direction in (JUDGE_COT, JUDGE_YESNO):
        name = f"{formalism}_{direction}.txt"
        tid = f"{formalism}/{direction}"
        shot_count = 0
    else:
        name = f"{formalism}_{direction}_{shot_count}shot.txt"
        tid = f"{formalism}/{direction}/{shot_count}shot"
    return PromptTemplate(tid, formalism, direction, shot_count, _asset(name))


@dataclass(frozen=True)
class TemplateSet:
    interpret: PromptTemplate
    compile: PromptTemplate


def load_template_set(formalism: str, shots: int = 0) -> TemplateSet:
    return TemplateSet(
        interpret=load_template(formalism, INTERPRET, shots),
        compile=load_template(formalism, COMPILE, shots),
    )


def render_prompt(template: PromptTemplate, ctx: dict) -> str:
    out = template.text
    for name in sorted(template.placeholders):
        if name not in ctx:
            raise MissingPlaceholder(name)
        out = out.replace("{" + name + "}", str(ctx[name]))
    return out.rstrip("\n")


def interpret_context(expr: FormalExpression) -> dict:
    return {"formula": expr.canonical_text, "vocabulary": vocabulary_block(expr)}


def compile_context(description: str) -> dict:
    return {"description": description}


def judge_context(formula1: str, formula2: str) -> dict:
    return {"formula1": formula1, "formula2": formula2}


# ---------------------------------------------------------------------------
# vocabulary enumeration (interpret prompts only)

def vocabulary_block(expr: FormalExpression) -> str:
    """The formula's symbols by kind; the variables line lists bound names too."""
    if expr.formalism == "prop":
        return "The propositions are: " + ", ".join(symbols(expr.ast).propositions)
    if expr.formalism == "fol":
        found = symbols(expr.ast)
        sigs = [name + "(" + ",".join(f"?p{i}" for i in range(arity)) + ")"
                for name, arity in found.predicates]
        return "\n".join(label + ", ".join(names) for label, names in (
            ("The objects are: ", found.objects),
            ("The parameterized predicates are: ", sigs),
            ("The free variables are: ", found.variables),
        ) if names)
    if expr.formalism == "regex":
        return ""
    raise ValueError(f"unknown formalism {expr.formalism!r}")
