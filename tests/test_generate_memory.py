"""A generated dataset holds about the size of its text: each record keeps
its expression's canonical text, not a parsed tree, and no leaf outlives the
record built from it. Measured with tracemalloc on the records that
`generate_dataset` returns."""

import gc
import tracemalloc

import pytest

from formaltrip.grammar import FOL, KSAT3, PROP, GenerationConfig, VocabularyConfig, generate_dataset

# bytes the records may hold per UTF-8 byte of their canonical texts; records
# that kept their parsed trees held 13-21 times their text at this scale
MAX_BYTES_PER_TEXT_BYTE = 10


@pytest.mark.parametrize("grammar", [KSAT3, FOL, PROP], ids=lambda g: g.id)
def test_generated_records_hold_little_more_than_their_text(grammar):
    config = GenerationConfig(depth=20, branching=20, sample_count=5, seed=1)
    generate_dataset(grammar, VocabularyConfig(), GenerationConfig(depth=4, branching=4))  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records, manifest = generate_dataset(grammar, VocabularyConfig(), config)
        del manifest
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    text = sum(len(r.expression.canonical_text.encode("utf-8")) for r in records)
    assert len(records) > 100
    assert held < MAX_BYTES_PER_TEXT_BYTE * text, (held, text, held / text)
