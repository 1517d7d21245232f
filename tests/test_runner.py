import json

import pytest

from formaltrip.grammar import (
    FOL,
    PROP,
    REGEX,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
)
from formaltrip.pipeline import (
    Provider,
    ProviderConfig,
    ProviderError,
    load_template,
    load_template_set,
    parse_judge_answer,
    prompt_hash,
    render_prompt,
    round_trip,
    run_round_trips,
)
from formaltrip.pipeline.runner import judge
from formaltrip.pipeline.templates import interpret_context, compile_context


def dataset(grammar=PROP, vocab=None, **kwargs):
    config = dict(depth=6, branching=20, sample_count=4, batches=2, seed=11)
    config.update(kwargs)
    if grammar.id == "regex":
        config.setdefault("metric", "cfg_depth")
    records, _ = generate_dataset(grammar, vocab or VocabularyConfig(), GenerationConfig(**config))
    return records


def oracle():
    return Provider(ProviderConfig(kind="perfect_oracle"))


def test_round_trip_verdict_equivalent():
    records = dataset()
    templates = load_template_set("prop", 0)
    out = round_trip(records[0], oracle(), templates)
    assert out.compliant
    assert out.verdict_status == "equivalent"
    assert out.prompt_ids == ["prop/interpret/0shot", "prop/compile/0shot"]
    assert out.timings["interpret_seconds"] == 0.0  # deterministic provider


def test_round_trip_is_context_isolated():
    captured = []

    class SpyProvider(Provider):
        def complete(self, prompt):
            captured.append(prompt)
            return super().complete(prompt)

    records = dataset()
    record = next(r for r in records if r.category_value >= 2)
    templates = load_template_set("prop", 0)
    spy = SpyProvider(ProviderConfig(kind="perfect_oracle"))
    round_trip(record, spy, templates)
    interpret_prompt, compile_prompt = captured
    assert record.expression.canonical_text in interpret_prompt
    # the compile request carries neither the interpret prompt nor the source text
    assert record.expression.canonical_text not in compile_prompt
    assert "[TASK]\nYour task is to convert" not in compile_prompt


def test_perfect_oracle_on_all_formalisms():
    for grammar, formalism in ((PROP, "prop"), (FOL, "fol"), (REGEX, "regex")):
        records = dataset(grammar)
        templates = load_template_set(formalism, 0)
        results = run_round_trips(records[:30], oracle(), templates)
        assert all(r.verdict_status == "equivalent" for r in results)
        assert all(r.compliant for r in results)


@pytest.mark.parametrize(
    "kind,status,witness",
    [("perfect_oracle", "equivalent", None), ("corrupting_oracle", "not_equivalent", "0")],
)
def test_regex_record_without_an_alphabet_uses_the_digits(kind, status, witness):
    from formaltrip.storage import dataset_record_from_json

    record = dataset_record_from_json({
        "id": "r0", "formalism": "regex", "grammar_id": "regex", "batch_index": 0,
        "category_metric": "cfg_depth", "category_value": 2, "expression": "01*",
        "cfg_depth": 2, "vocabulary": {}, "seed": 1,
    })
    out = round_trip(record, Provider(ProviderConfig(kind=kind)), load_template_set("regex", 0))
    assert out.noncompliant_reason is None
    assert out.alphabet is None
    assert (out.verdict_status, out.verdict_witness) == (status, witness)


def test_noncompliant_reply_short_circuits():
    records = dataset()
    templates = load_template_set("prop", 0)
    provider = oracle()
    interpret_prompt = render_prompt(
        templates.interpret, interpret_context(records[0].expression)
    )
    description = provider.complete(interpret_prompt).text
    compile_prompt = render_prompt(templates.compile, compile_context(description))
    fixtures = [
        {"prompt_sha256": prompt_hash(interpret_prompt), "reply": description},
        {"prompt_sha256": prompt_hash(compile_prompt), "reply": "I cannot help with that."},
    ]
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as td:
        path = pathlib.Path(td) / "fx.jsonl"
        path.write_text("\n".join(json.dumps(f) for f in fixtures) + "\n")
        replay = Provider(
            ProviderConfig(kind="scripted_replay", fixtures_path=str(path))
        )
        out = round_trip(records[0], replay, templates)
    assert not out.compliant
    assert out.verdict_status is None
    assert out.noncompliant_reason


def test_transport_error_recorded_not_raised():
    records = dataset()
    templates = load_template_set("prop", 0)
    replay = Provider(ProviderConfig(kind="scripted_replay", fixtures_path=""))
    out = round_trip(records[0], replay, templates)
    assert out.errored
    assert out.verdict_status is None


@pytest.mark.parametrize("body", [{}, {"choices": []}, {"choices": [{"message": {}}]}])
def test_malformed_http_body_is_an_error_on_its_record(body):
    calls = []

    def transport(endpoint, payload, headers, timeout):
        calls.append(payload)
        return body

    config = ProviderConfig(
        kind="http_chat", endpoint="http://example.invalid/v1/chat", model="m",
        rate_limit_rpm=100000, backoff_base=0.001, max_attempts=3,
    )
    provider = Provider(config, transport=transport)
    with pytest.raises(ProviderError, match=r"no choices\[0\]\.message\.content"):
        provider.complete("prompt")
    assert len(calls) == 1  # not retried

    out = round_trip(dataset()[0], provider, load_template_set("prop", 0))
    assert out.error.startswith("ProviderError: response has no choices[0].message.content")
    assert len(calls) == 2
    assert out.verdict_status is None


def test_null_usage_is_no_token_counts():
    record = dataset()[0]

    def transport(endpoint, payload, headers, timeout):
        reply = record.expression.canonical_text
        return {"choices": [{"message": {"content": reply}}], "usage": None}

    config = ProviderConfig(
        kind="http_chat", endpoint="http://example.invalid/v1/chat", model="m",
        rate_limit_rpm=100000, backoff_base=0.001, max_attempts=3,
    )
    out = round_trip(record, Provider(config, transport=transport), load_template_set("prop", 0))
    assert out.error is None
    assert out.verdict_status == "equivalent"
    assert out.tokens == {}


def test_concurrent_results_keep_dataset_order():
    records = dataset()
    templates = load_template_set("prop", 0)
    sequential = run_round_trips(records, oracle(), templates, width=1)
    concurrent = run_round_trips(records, oracle(), templates, width=8)
    assert [r.record_id for r in sequential] == [r.record_id for r in concurrent]


def test_concurrent_on_record_sees_dataset_order():
    records = dataset()
    templates = load_template_set("prop", 0)
    delivered = []
    results = run_round_trips(records, oracle(), templates, width=2, on_record=delivered.append)
    assert [r.record_id for r in delivered] == [r.id for r in records]
    assert delivered == results


@pytest.mark.parametrize("failure", [OSError, KeyboardInterrupt])
def test_concurrent_run_stops_after_records_in_flight(monkeypatch, failure):
    """A failed write or Ctrl-C while delivering the first result cancels
    every record not yet started. Records after the first wait on
    `released`, which the pool sets only once it is shut down, so the count
    does not depend on timing."""
    import threading

    from formaltrip.pipeline import runner

    released = threading.Event()
    done = []
    real_round_trip = runner.round_trip

    class Pool(runner.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            released.set()
            super().shutdown(wait=wait)

    def gated_round_trip(record, *args):
        if record is not records[0]:
            released.wait(10)
        done.append(real_round_trip(record, *args))
        return done[-1]

    def fail(result):
        raise failure("stop")

    monkeypatch.setattr(runner, "round_trip", gated_round_trip)
    monkeypatch.setattr(runner, "ThreadPoolExecutor", Pool)
    records = dataset()[:20]
    width = 2
    with pytest.raises(failure):
        run_round_trips(records, oracle(), load_template_set("prop", 0), width=width, on_record=fail)
    assert len(records) == 20
    # the first record, and at most one record in flight per worker
    assert 1 <= len(done) <= 1 + width


def test_verifier_exception_is_an_error_on_its_record(monkeypatch):
    from formaltrip import storage
    from formaltrip.pipeline import runner

    records = dataset()
    templates = load_template_set("prop", 0)
    corrupting = Provider(ProviderConfig(kind="corrupting_oracle"))
    clean = run_round_trips(records, corrupting, templates, width=2)

    victim = records[2].expression.ast
    real_verify = runner.verify_pair

    def faulty_verify(formalism, left, right, **kwargs):
        if left is victim:
            raise RuntimeError("verifier fault")
        return real_verify(formalism, left, right, **kwargs)

    monkeypatch.setattr(runner, "verify_pair", faulty_verify)
    faulty = run_round_trips(records, corrupting, templates, width=2)

    assert len(faulty) == len(clean)
    for i, (a, b) in enumerate(zip(clean, faulty)):
        if i == 2:
            assert b.error == "RuntimeError: verifier fault"
            assert b.parsed == a.parsed and b.verdict_status is None
        else:
            assert storage.dumps(storage.round_trip_to_json(b)) == storage.dumps(
                storage.round_trip_to_json(a)
            )


def test_a_corruption_nested_too_deep_is_an_error_on_its_record():
    from formaltrip.storage import dataset_record_from_json
    from test_nesting_bound import AT_BOUND, TOO_DEEP

    records = [
        dataset_record_from_json({
            "id": f"f{i}", "formalism": "fol", "grammar_id": "fol", "batch_index": 0,
            "category_metric": "cfg_depth", "category_value": 2, "expression": text,
            "cfg_depth": 2, "vocabulary": {}, "seed": 1,
        })
        # negating the body of the first one's root chain nests 101 levels
        for i, text in enumerate((AT_BOUND["fol-prefix"][1], "∀ x1. pred1(x1)"))
    ]
    corrupting = Provider(ProviderConfig(kind="corrupting_oracle"))
    deep, shallow = run_round_trips(records, corrupting, load_template_set("fol", 0))
    assert deep.error == f"ParseError: {TOO_DEEP}"
    assert deep.verdict_status is None
    assert shallow.error is None and shallow.verdict_status == "not_equivalent"


def test_skip_ids_resume_semantics():
    records = dataset()
    templates = load_template_set("prop", 0)
    done = {records[0].id, records[2].id}
    results = run_round_trips(records, oracle(), templates, skip_ids=done)
    assert {r.record_id for r in results} == {r.id for r in records} - done


@pytest.mark.parametrize(
    "reply,expected",
    [
        ("reasoning...\n[Answer] yes", "yes"),
        ("...[Answer]: No.", "no"),
        ("[answer]  YES indeed", "yes"),
        ("first [Answer] yes then [Answer] no", "no"),
        ("no marker at all", "unparseable"),
        ("[Answer] maybe", "unparseable"),
    ],
)
def test_judge_answer_parsing(reply, expected):
    assert parse_judge_answer(reply) == expected


def test_judge_with_oracle_matches_ground_truth():
    template = load_template("prop", "judge_cot")
    rec = judge(
        "pair-1", "prop", "¬(p1 ∧ p2)", "¬p1 ∨ ¬p2", "equivalent", oracle(), template
    )
    assert rec.answer == "yes"
    rec2 = judge(
        "pair-2", "prop", "p1 ∧ p2", "p1 ∨ p2", "not_equivalent", oracle(), template
    )
    assert rec2.answer == "no"


def test_failed_judge_request_is_an_error_on_its_record():
    replay = Provider(ProviderConfig(kind="scripted_replay"))
    rec = judge("pair-1", "prop", "p1", "p1", "equivalent", replay, load_template("prop", "judge_cot"))
    assert rec.error == "ReplayMiss: no fixtures file configured"
    assert (rec.reply, rec.answer) == ("", "unparseable")


def test_few_shot_round_trip_with_oracle():
    for grammar, formalism in ((PROP, "prop"), (FOL, "fol"), (REGEX, "regex")):
        records = dataset(grammar)
        templates = load_template_set(formalism, 2)
        results = run_round_trips(records[:10], oracle(), templates)
        assert all(r.verdict_status == "equivalent" for r in results)
        assert results[0].prompt_ids == [
            f"{formalism}/interpret/2shot",
            f"{formalism}/compile/2shot",
        ]
