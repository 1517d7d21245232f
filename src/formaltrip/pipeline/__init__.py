"""Prompt rendering, completion providers, and the round-trip runner."""

from .nl_codec import describe, parse_description
from .providers import (
    CORRUPTING_ORACLE,
    HTTP_CHAT,
    PERFECT_ORACLE,
    SCRIPTED_REPLAY,
    Completion,
    Provider,
    ProviderConfig,
    ProviderError,
    ReplayMiss,
    ResponseCache,
    TransportError,
    corrupt_expression,
    load_fixtures,
    prompt_hash,
)
from .runner import (
    JudgeRecord,
    RoundTripRecord,
    judge,
    parse_judge_answer,
    round_trip,
    run_round_trips,
)
from .templates import (
    COMPILE,
    INTERPRET,
    JUDGE_COT,
    JUDGE_YESNO,
    MissingPlaceholder,
    PromptTemplate,
    TemplateSet,
    compile_context,
    interpret_context,
    judge_context,
    load_template,
    load_template_set,
    render_prompt,
    vocabulary_block,
)

__all__ = [
    "COMPILE", "CORRUPTING_ORACLE", "Completion", "HTTP_CHAT", "INTERPRET",
    "JUDGE_COT", "JUDGE_YESNO", "JudgeRecord", "MissingPlaceholder",
    "PERFECT_ORACLE", "PromptTemplate", "Provider", "ProviderConfig",
    "ProviderError", "ReplayMiss", "ResponseCache", "RoundTripRecord",
    "SCRIPTED_REPLAY", "TemplateSet", "TransportError", "compile_context",
    "corrupt_expression", "describe", "interpret_context", "judge",
    "judge_context", "load_fixtures", "load_template", "load_template_set",
    "parse_description", "parse_judge_answer", "prompt_hash",
    "render_prompt", "round_trip", "run_round_trips", "vocabulary_block",
]
