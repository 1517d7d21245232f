"""The FS -> NL -> FS round trip and the LLM-as-judge query.

Interpretation and compilation are two independent single-turn requests
with no shared conversation state; the only channel between them is the
natural-language description itself. Verification happens locally with
the matching built-in verifier.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from ..grammar.dataset import DatasetRecord
from ..syntax import NonCompliant, extract_formal
from ..verify import ProverBudget, verify_pair
from ..verify.fol import FiniteModel
from ..verify.verdict import EquivalenceVerdict
from .providers import Provider, ProviderError
from .templates import (
    TemplateSet,
    compile_context,
    interpret_context,
    judge_context,
    render_prompt,
)

logger = logging.getLogger(__name__)


@dataclass
class RoundTripRecord:
    record_id: str
    formalism: str
    grammar_id: str
    batch_index: int
    category_metric: str
    category_value: int | float
    expression: str  # source canonical text
    model: str
    cfg_depth: int = 0
    alphabet: list[str] | None = None
    prompt_ids: list[str] = field(default_factory=list)
    interpretation: str = ""
    raw_reply: str = ""
    parsed: str | None = None
    noncompliant_reason: str | None = None
    verdict_status: str | None = None
    verdict_witness: object = None
    verdict_reason: str | None = None
    error: str | None = None
    timings: dict = field(default_factory=dict)
    tokens: dict = field(default_factory=dict)

    @property
    def compliant(self) -> bool:
        return self.parsed is not None

    @property
    def errored(self) -> bool:
        return self.error is not None


@dataclass
class JudgeRecord:
    pair_id: str
    formalism: str
    formula1: str
    formula2: str
    ground_truth: str  # equivalent | not_equivalent
    answer: str = "unparseable"  # yes | no | unparseable
    reply: str = ""
    error: str | None = None


def witness_payload(verdict: EquivalenceVerdict):
    w = verdict.witness
    if isinstance(w, FiniteModel):
        return {
            "domain_size": w.domain_size,
            "constants": dict(w.constants),
            "predicates": {k: sorted(map(list, v)) for k, v in w.predicates.items()},
        }
    return w


def round_trip(
    record: DatasetRecord,
    provider: Provider,
    templates: TemplateSet,
    budget: ProverBudget | None = None,
) -> RoundTripRecord:
    alphabet = (sorted(record.vocabulary.get("alphabet", ())) or None) if record.formalism == "regex" else None
    out = RoundTripRecord(
        record_id=record.id,
        formalism=record.formalism,
        grammar_id=record.grammar_id,
        batch_index=record.batch_index,
        category_metric=record.category_metric,
        category_value=record.category_value,
        expression=record.expression.canonical_text,
        model=provider.config.model,
        cfg_depth=record.cfg_depth,
        alphabet=alphabet,
        prompt_ids=[templates.interpret.id, templates.compile.id],
    )
    try:
        out.interpretation = _complete(provider, templates.interpret,
                                       interpret_context(record.expression), out, "interpret")
        out.raw_reply = _complete(provider, templates.compile,
                                  compile_context(out.interpretation), out, "compile")
    except (ProviderError, ValueError) as e:
        out.error = f"{type(e).__name__}: {e}"
        return out

    extracted = extract_formal(out.raw_reply, record.formalism, alphabet)
    if isinstance(extracted, NonCompliant):
        out.noncompliant_reason = extracted.reason
        return out
    out.parsed = extracted.canonical_text

    t0 = time.monotonic()
    try:
        verdict = verify_pair(record.formalism, record.expression.ast, extracted.ast, budget=budget)
    except Exception as e:  # a verifier fault costs its own record, not the run
        logger.warning("verifier failed on record %s", record.id, exc_info=True)
        out.error = f"{type(e).__name__}: {e}"
        return out
    out.timings["verify_seconds"] = 0.0 if provider.config.deterministic else round(time.monotonic() - t0, 6)
    out.verdict_status = verdict.status.value
    out.verdict_witness = witness_payload(verdict)
    out.verdict_reason = verdict.reason
    return out


def _complete(provider: Provider, template, context: dict, out: RoundTripRecord, stage: str) -> str:
    """The reply to the prompt rendered from template and context, its
    seconds and tokens recorded in out under stage. Rendering is not timed."""
    prompt = render_prompt(template, context)
    t0 = time.monotonic()
    completion = provider.complete(prompt)
    out.timings[f"{stage}_seconds"] = 0.0 if provider.config.deterministic else round(time.monotonic() - t0, 6)
    if completion.prompt_tokens is not None:
        out.tokens[f"{stage}_prompt"] = completion.prompt_tokens
        out.tokens[f"{stage}_completion"] = completion.completion_tokens
    return completion.text


def parse_judge_answer(reply: str) -> str:
    """Last yes/no after the final [Answer] marker, case-insensitive."""
    import re

    markers = list(re.finditer(r"\[answer\]", reply, re.IGNORECASE))
    if not markers:
        return "unparseable"
    tail = reply[markers[-1].end():]
    m = re.search(r"\b(yes|no)\b", tail, re.IGNORECASE)
    return m.group(1).lower() if m else "unparseable"


def judge(
    pair_id: str,
    formalism: str,
    formula1: str,
    formula2: str,
    ground_truth: str,
    provider: Provider,
    template,
) -> JudgeRecord:
    out = JudgeRecord(
        pair_id=pair_id,
        formalism=formalism,
        formula1=formula1,
        formula2=formula2,
        ground_truth=ground_truth,
    )
    try:
        prompt = render_prompt(template, judge_context(formula1, formula2))
        reply = provider.complete(prompt)
    except (ProviderError, ValueError) as e:
        out.error = f"{type(e).__name__}: {e}"
        return out
    out.reply = reply.text
    out.answer = parse_judge_answer(reply.text)
    return out


def run_round_trips(
    records: list[DatasetRecord],
    provider: Provider,
    templates: TemplateSet,
    budget: ProverBudget | None = None,
    width: int = 1,
    skip_ids: set[str] | None = None,
    on_record=None,
) -> list[RoundTripRecord]:
    """Execute round trips, emitting results in dataset order.

    With width > 1 completions run concurrently but results are still
    delivered (and written by on_record) in submission order. If delivery
    fails or is interrupted, the records not yet started are cancelled and
    only those already in flight finish.
    """
    todo = [r for r in records if not skip_ids or r.id not in skip_ids]
    results: list[RoundTripRecord] = []
    if width <= 1:
        for record in todo:
            result = round_trip(record, provider, templates, budget)
            results.append(result)
            if on_record:
                on_record(result)
        return results
    with ThreadPoolExecutor(max_workers=width) as pool:
        futures = [
            pool.submit(round_trip, record, provider, templates, budget)
            for record in todo
        ]
        try:
            for future in futures:
                result = future.result()
                results.append(result)
                if on_record:
                    on_record(result)
        except BaseException:  # Ctrl-C or a failed write: send no more requests
            pool.shutdown(cancel_futures=True)
            raise
    return results
