"""Pinned interpret prompts over seeded datasets.

Results files store no prompts and the replay fixture holds prop prompts
only, so no other pin covers what the vocabulary block lists for the other
grammars: objects, predicates with their arities, free variables, and the
empty block of a regex. Each row hashes the 0-shot and the 2-shot interpret
prompt of every record of one seeded `generate_dataset` call. The hashes
were recorded before the symbol collectors were merged into one walk.
"""

import hashlib

import pytest

from formaltrip.grammar import (
    ENGLISH,
    FOL,
    KSAT3,
    PROP,
    REGEX,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
)
from formaltrip.pipeline import interpret_context, load_template, render_prompt

# (id, grammar, vocabulary, metric, records, sha256 of the prompts)
PROMPT_PINS = [
    ("prop", PROP, VocabularyConfig(), "operator_total", 111,
     "e8a5d34a4ba729b929b8c84ed65b76e6801ba4742e694cf18b58b600d4dd9e3b"),
    ("ksat3", KSAT3, VocabularyConfig(), "operator_total", 208,
     "8613c67af1a1691200e899e5bbda0935378ef2e8cdfb85cd03dc9dbad5d0992f"),
    ("fol", FOL, VocabularyConfig(max_predicate_arity=3), "operator_total", 90,
     "0eaee23c6f98d2acbda3707c4ff37b9210da91b720bd6671912ae5f3f1fae6c0"),
    ("fol_english", FOL, VocabularyConfig(free_variable_prob=0.9, naming_mode=ENGLISH), "operator_total", 95,
     "9910dd3887029ec4966308983609a6e6474be9e0733de42d346a724961fffd67"),
    ("regex", REGEX, VocabularyConfig(alphabet_size=3), "cfg_depth", 42,
     "de47e7b3b1755b3cbecf63816c446fb513883a69f3025f873bb1bd656f731e37"),
]


@pytest.mark.parametrize("name,grammar,vocab,metric,count,expected", PROMPT_PINS,
                         ids=[row[0] for row in PROMPT_PINS])
def test_interpret_prompts_are_pinned(name, grammar, vocab, metric, count, expected):
    records, _ = generate_dataset(
        grammar, vocab,
        GenerationConfig(depth=12, branching=20, sample_count=4, metric=metric, batches=2, seed=3),
    )
    assert len(records) == count
    digest = hashlib.sha256()
    for shots in (0, 2):
        template = load_template(records[0].formalism, "interpret", shots)
        for record in records:
            digest.update(render_prompt(template, interpret_context(record.expression)).encode())
            digest.update(b"\0")
    assert digest.hexdigest() == expected
