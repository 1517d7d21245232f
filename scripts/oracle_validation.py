#!/usr/bin/env python3
"""Harness validation sweep: run the lossless oracle end to end over all
five dataset families and print compliance/accuracy per family.

Every number should be exactly 1.0; anything else means the plumbing
(prompt rendering, extraction, parsing, or verification) broke.

Usage: python scripts/oracle_validation.py [--samples 1000] [--seed 7]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from formaltrip.grammar import (  # noqa: E402
    BUILTIN_GRAMMARS,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
    infer_formalism,
)
from formaltrip.metrics import tally  # noqa: E402
from formaltrip.pipeline import (  # noqa: E402
    Provider,
    ProviderConfig,
    load_template_set,
    run_round_trips,
)

FAMILIES = [
    ("ksat3", "ksat3", {}),
    ("prop", "prop", {}),
    ("fol", "fol", {}),
    ("fol_english", "fol", {"naming_mode": "english"}),
    ("regex", "regex", {}),
]


def family_dataset(grammar_id: str, vocab_kwargs: dict, samples: int, seed: int):
    grammar = BUILTIN_GRAMMARS[grammar_id]
    formalism = infer_formalism(grammar)
    metric = "cfg_depth" if formalism == "regex" else "operator_total"
    # the regex grammar has few depth categories, so it needs a larger quota
    # and a wider walk to fill them
    quota = samples // 8 if formalism == "regex" else samples // 20
    branching = 200 if formalism == "regex" else 60
    config = GenerationConfig(
        depth=14, branching=branching, sample_count=max(10, quota),
        metric=metric, batches=1, seed=seed,
    )
    records, _ = generate_dataset(grammar, VocabularyConfig(**vocab_kwargs), config)
    return records[:samples], formalism


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--shots", type=int, default=0, choices=(0, 2))
    args = parser.parse_args()

    provider = Provider(ProviderConfig(kind="perfect_oracle"))
    failures = 0
    print(f"{'family':<14} {'records':>8} {'compliance':>11} {'accuracy':>9} {'seconds':>8}")
    for name, grammar_id, vocab_kwargs in FAMILIES:
        records, formalism = family_dataset(grammar_id, vocab_kwargs, args.samples, args.seed)
        templates = load_template_set(formalism, args.shots)
        started = time.monotonic()
        results = run_round_trips(records, provider, templates)
        elapsed = time.monotonic() - started
        stats = tally(results)
        comp, acc = stats.compliance, stats.accuracy
        print(f"{name:<14} {len(results):>8} {comp:>11.4f} {acc:>9.4f} {elapsed:>8.1f}")
        if comp != 1.0 or acc != 1.0:
            failures += 1
            for r in results:
                if r.verdict_status != "equivalent":
                    print(f"  FAILED {r.record_id}: {r.expression!r} -> {r.parsed!r}")
                    break
    if failures:
        print(f"{failures} families failed harness validation", file=sys.stderr)
        return 1
    print("harness validated: every family is lossless end to end")
    return 0


if __name__ == "__main__":
    sys.exit(main())
