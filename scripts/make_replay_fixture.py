#!/usr/bin/env python3
"""Regenerate the committed replay fixture set under tests/data/replay/.

A deterministic scripted "model" answers every prompt: interpretations are
codec renderings, compilations are mostly correct but a fixed slice of
descriptions yields corrupted formulas or refusals, and judge replies mix
correct, wrong, and unparseable answers. Replies are recorded as replay
fixtures, then the real pipeline is run through scripted_replay to produce
the frozen expected summary.

Run from the repository root:  python scripts/make_replay_fixture.py
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from formaltrip import report as report_mod  # noqa: E402
from formaltrip import storage  # noqa: E402
from formaltrip.grammar import (  # noqa: E402
    PROP,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
)
from formaltrip.pipeline import (  # noqa: E402
    Provider,
    ProviderConfig,
    corrupt_expression,
    describe,
    load_template,
    load_template_set,
    parse_description,
    prompt_hash,
)
from formaltrip.pipeline.providers import classify_prompt  # noqa: E402
from formaltrip.pipeline.runner import judge as judge_pair  # noqa: E402
from formaltrip.pipeline.runner import run_round_trips  # noqa: E402
from formaltrip.verify import verify_pair  # noqa: E402

DATA_DIR = ROOT / "tests" / "data" / "replay"
SEED = 2024


def stable_int(text: str) -> int:
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16)


def scripted_reply(prompt: str) -> str:
    task = classify_prompt(prompt)
    if task.direction == "interpret":
        return describe(task.expression)
    if task.direction == "compile":
        expr = parse_description(task.description, task.formalism)
        h = stable_int(task.description)
        if h % 7 == 3:
            return "I am unable to produce a formula for this description."
        if h % 5 == 1:
            bad = corrupt_expression(expr, random.Random(h))
            return f"The formula is:\n{bad.canonical_text}"
        return expr.canonical_text
    # judge
    left, right = task.pair
    truth = verify_pair(task.formalism, left.ast, right.ast).equivalent
    h = stable_int(left.canonical_text + "#" + right.canonical_text)
    if h % 11 == 5:
        return "These formulas look broadly similar in shape."
    answer = "yes" if truth else "no"
    if h % 4 == 2:
        answer = "no" if answer == "yes" else "yes"
    return f"Comparing structure and operators.\n[Answer] {answer}"


class RecordingProvider(Provider):
    """Perfect replay source: computes replies and records fixtures."""

    def __init__(self, fixtures: dict[str, str]):
        super().__init__(ProviderConfig(kind="perfect_oracle"))
        self.fixtures = fixtures

    def _complete_uncached(self, prompt):
        from formaltrip.pipeline.providers import Completion

        reply = scripted_reply(prompt)
        self.fixtures[prompt_hash(prompt)] = reply
        return Completion(reply)


def main() -> int:
    if DATA_DIR.exists():
        shutil.rmtree(DATA_DIR)
    DATA_DIR.mkdir(parents=True)

    records, manifest = generate_dataset(
        PROP,
        VocabularyConfig(),
        GenerationConfig(
            depth=9, branching=30, sample_count=12, batches=2, seed=SEED
        ),
    )
    print(f"dataset: {len(records)} records")
    storage.write_dataset(records, manifest, DATA_DIR)

    fixtures: dict[str, str] = {}
    recorder = RecordingProvider(fixtures)
    templates = load_template_set("prop", 0)
    results = run_round_trips(records, recorder, templates)

    judge_template = load_template("prop", "judge_cot")
    for r in results:
        if r.judgeable:
            judge_pair(r.record_id, "prop", r.expression, r.parsed, r.verdict_status,
                       recorder, judge_template)

    fixture_path = DATA_DIR / "fixtures.jsonl"
    storage.write_jsonl(
        fixture_path,
        [
            {"prompt_sha256": k, "reply": v}
            for k, v in sorted(fixtures.items())
        ],
    )
    print(f"fixtures: {len(fixtures)} replies")

    # replay everything through the real provider stack and freeze the report
    replay = Provider(ProviderConfig(kind="scripted_replay", fixtures_path=str(fixture_path)))
    replay_results = run_round_trips(records, replay, templates)
    replay_judge = [
        judge_pair(r.record_id, "prop", r.expression, r.parsed, r.verdict_status,
                   replay, judge_template)
        for r in replay_results
        if r.judgeable
    ]
    batches = {}
    for r in replay_results:
        batches.setdefault(f"batch{r.batch_index}", []).append(r)
    summary = report_mod.summarize_run(batches, replay_judge)
    report_mod.write_report(summary, DATA_DIR, stem="expected_summary")

    outcome = {
        "records": len(replay_results),
        "compliant": sum(1 for r in replay_results if r.compliant),
        "equivalent": sum(1 for r in replay_results if r.verdict_status == "equivalent"),
        "not_equivalent": sum(
            1 for r in replay_results if r.verdict_status == "not_equivalent"
        ),
        "judge_pairs": len(replay_judge),
        "confusion": summary["judge"],
    }
    print(json.dumps(outcome, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
