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

from ..syntax.nodes import Atom, Constant, FormalExpression, LogicNode, Proposition, Quantified, walk

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
    if expr.formalism == "prop":
        names = dict.fromkeys(n.name for n in walk(expr.ast) if type(n) is Proposition)
        return "The propositions are: " + ", ".join(names)
    if expr.formalism == "fol":
        objects, predicates, variables = _fol_symbols(expr.ast)
        lines = []
        if objects:
            lines.append("The objects are: " + ", ".join(objects))
        if predicates:
            sigs = [
                name + "(" + ",".join(f"?p{i}" for i in range(arity)) + ")"
                for name, arity in predicates
            ]
            lines.append("The parameterized predicates are: " + ", ".join(sigs))
        if variables:
            lines.append("The free variables are: " + ", ".join(variables))
        return "\n".join(lines)
    if expr.formalism == "regex":
        return ""
    raise ValueError(f"unknown formalism {expr.formalism!r}")


def _fol_symbols(formula: LogicNode):
    objects: list[str] = []
    predicates: list[tuple[str, int]] = []
    variables: list[str] = []
    for node in walk(formula):
        t = type(node)
        if t is Atom:
            if (node.predicate, len(node.terms)) not in predicates:
                predicates.append((node.predicate, len(node.terms)))
            for term in node.terms:
                seen = objects if type(term) is Constant else variables
                if term.name not in seen:
                    seen.append(term.name)
        elif t is Quantified:
            for v in node.variables:
                if v not in variables:
                    variables.append(v)
    return objects, predicates, variables
