import json
from dataclasses import fields

import pytest

from formaltrip.grammar import PROP, DatasetRecord, GenerationConfig, VocabularyConfig, generate_dataset
from formaltrip.pipeline import Provider, ProviderConfig, load_template_set, run_round_trips
from formaltrip.pipeline.runner import JudgeRecord
from formaltrip import storage


def make_dataset():
    return generate_dataset(
        PROP,
        VocabularyConfig(),
        GenerationConfig(depth=6, branching=20, sample_count=4, batches=2, seed=11),
    )


def test_dataset_round_trips_through_files(tmp_path):
    records, manifest = make_dataset()
    paths = storage.write_dataset(records, manifest, tmp_path)
    batch_files = [p for p in paths if p.suffix == ".jsonl"]
    assert [p.name for p in batch_files] == [
        "prop_operator_total_batch0.jsonl",
        "prop_operator_total_batch1.jsonl",
    ]
    loaded = [r for p in batch_files for r in storage.read_dataset(p)]
    by_id = {r.id: r for r in loaded}
    assert len(by_id) == len(records)
    for original in records:
        clone = by_id[original.id]
        for f in fields(DatasetRecord):
            if f.name == "expression":
                assert clone.expression.canonical_text == original.expression.canonical_text
                assert clone.expression.ast == original.expression.ast
            else:
                assert getattr(clone, f.name) == getattr(original, f.name), f.name


def test_manifest_contents(tmp_path):
    records, manifest = make_dataset()
    paths = storage.write_dataset(records, manifest, tmp_path)
    manifest_path = paths[-1]
    import json

    data = json.loads(manifest_path.read_text())
    assert data["grammar_id"] == "prop"
    assert data["total"] == len(records)
    assert sum(c["sampled"] for c in data["categories"].values()) == len(records)


def test_result_file_round_trip(tmp_path):
    records, _ = make_dataset()
    provider = Provider(ProviderConfig(kind="perfect_oracle"))
    results = run_round_trips(records[:5], provider, load_template_set("prop", 0))
    header = storage.result_header("perfect-oracle", {"x": 1}, None, True)
    path = tmp_path / "results.jsonl"
    with storage.ResultWriter(path, header) as writer:
        for r in results:
            writer.write(storage.round_trip_to_json(r))
    loaded_header, loaded = storage.read_results(path)
    assert loaded_header["model"] == "perfect-oracle"
    assert loaded_header["started_at"] is None
    assert [r.record_id for r in loaded] == [r.record_id for r in results]
    assert loaded[0].verdict_status == "equivalent"


def test_line_separators_inside_a_reply_survive_report(tmp_path):
    from formaltrip.cli import main

    records, _ = make_dataset()
    provider = Provider(ProviderConfig(kind="perfect_oracle"))
    results = run_round_trips(records[:3], provider, load_template_set("prop", 0))
    reply = "first\u2028second\u2029third\u0085fourth"
    results[1].raw_reply = reply
    header = storage.result_header("perfect-oracle", {"x": 1}, None, True)
    path = tmp_path / "results.jsonl"
    with storage.ResultWriter(path, header) as writer:
        for r in results:
            writer.write(storage.round_trip_to_json(r))
    assert "\u2028" in path.read_text(encoding="utf-8")  # written raw, not escaped

    _, loaded = storage.read_results(path)
    assert [r.raw_reply for r in loaded] == [r.raw_reply for r in results]
    assert loaded[1].raw_reply == reply
    assert main(["report", "--results", str(path), "--output-dir", str(tmp_path / "report")]) == 0
    summary = json.loads((tmp_path / "report" / "summary.json").read_text())
    assert summary["compliance"] == 1.0


def test_judge_file_round_trip(tmp_path):
    header = storage.result_header("m", {}, None, True)
    rec = JudgeRecord(
        pair_id="a", formalism="prop", formula1="p1", formula2="p1",
        ground_truth="equivalent", answer="yes", reply="[Answer] yes",
    )
    path = tmp_path / "judge.jsonl"
    with storage.ResultWriter(path, header) as writer:
        writer.write(storage.judge_to_json(rec))
    _, loaded = storage.read_judge_results(path)
    assert loaded == [rec]


def test_resume_skips_existing_ids(tmp_path):
    header = storage.result_header("m", {"k": 1}, None, True)
    path = tmp_path / "results.jsonl"
    records, _ = make_dataset()
    provider = Provider(ProviderConfig(kind="perfect_oracle"))
    results = run_round_trips(records[:4], provider, load_template_set("prop", 0))
    with storage.ResultWriter(path, header) as writer:
        for r in results[:2]:
            writer.write(storage.round_trip_to_json(r))
    with storage.ResultWriter(path, header, resume=True) as writer:
        assert writer.existing_ids == {results[0].record_id, results[1].record_id}
        for r in results[2:]:
            writer.write(storage.round_trip_to_json(r))
    _, loaded = storage.read_results(path)
    assert [r.record_id for r in loaded] == [r.record_id for r in results]


def test_resume_drops_a_torn_last_line(tmp_path):
    header = storage.result_header("m", {"k": 1}, None, True)
    path = tmp_path / "results.jsonl"
    records, _ = make_dataset()
    provider = Provider(ProviderConfig(kind="perfect_oracle"))
    results = run_round_trips(records[:3], provider, load_template_set("prop", 0))
    with storage.ResultWriter(path, header) as writer:
        writer.write(storage.round_trip_to_json(results[0]))
    torn = storage.dumps(storage.round_trip_to_json(results[1]))
    with path.open("a", encoding="utf-8") as fh:
        fh.write(torn[: len(torn) // 2])  # the run died mid-write
    with storage.ResultWriter(path, header, resume=True) as writer:
        assert writer.existing_ids == {results[0].record_id}
        for r in results[1:]:
            writer.write(storage.round_trip_to_json(r))
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    for line in text.splitlines():
        json.loads(line)
    _, loaded = storage.read_results(path)
    assert [r.record_id for r in loaded] == [r.record_id for r in results]


def test_resume_rejects_changed_config(tmp_path):
    path = tmp_path / "results.jsonl"
    with storage.ResultWriter(path, storage.result_header("m", {"k": 1}, None, True)):
        pass
    with pytest.raises(ValueError):
        storage.ResultWriter(path, storage.result_header("m", {"k": 2}, None, True), resume=True)


def test_resume_rejects_a_file_without_a_header(tmp_path):
    path = tmp_path / "results.jsonl"
    text = '{"record_id": "a"}\n{"record_id": "b"}\n'
    path.write_text(text, encoding="utf-8")
    header = storage.result_header("m", {"k": 1}, None, True)
    with pytest.raises(ValueError, match="missing header"):
        storage.ResultWriter(path, header, resume=True)
    assert path.read_text(encoding="utf-8") == text


def test_config_hash_changes_only_with_semantics():
    a = storage.config_hash({"provider": {"kind": "x"}, "shots": 0})
    b = storage.config_hash({"provider": {"kind": "x"}, "shots": 0})
    c = storage.config_hash({"provider": {"kind": "x"}, "shots": 2})
    assert a == b != c


def test_dumps_is_stable():
    assert storage.dumps({"b": 1, "a": [1, 2]}) == '{"a": [1,2],"b": 1}'


def test_records_serialize_to_the_bytes_of_a_deep_copy(tmp_path):
    from dataclasses import asdict

    from formaltrip.pipeline.runner import RoundTripRecord, witness_payload
    from formaltrip.verify.fol import FiniteModel
    from formaltrip.verify.verdict import not_equivalent

    model = FiniteModel(2, {"c1": 0}, {"pred1": frozenset({(0, 1), (1, 1)}), "pred2": frozenset()})
    base = dict(
        grammar_id="g", batch_index=0, category_metric="operator_total", category_value=3,
        model="m", prompt_ids=["a", "b"], interpretation="text", raw_reply="reply",
        noncompliant_reason=None, verdict_status="not_equivalent", verdict_reason=None,
        timings={"interpret_seconds": 0.25, "compile_seconds": 0.5},
        tokens={"interpret_prompt": 12, "interpret_completion": 7},
    )
    records = [
        RoundTripRecord(
            record_id="p", formalism="prop", expression="p1 ∧ p2", parsed="p1 ∨ p2",
            verdict_witness={"p1": True, "p2": False}, **base,
        ),
        RoundTripRecord(
            record_id="r", formalism="regex", expression="01*", parsed="01", alphabet=["0", "1"],
            verdict_witness="011", **base,
        ),
        RoundTripRecord(
            record_id="f", formalism="fol", expression="pred1(c1, c1)", parsed="pred2(c1)",
            verdict_witness=witness_payload(not_equivalent(witness=model)), **base,
        ),
    ]
    for r in records:
        assert storage.dumps(storage.round_trip_to_json(r)) == storage.dumps({**asdict(r), "kind": "round_trip"})
    judged = JudgeRecord(
        pair_id="j", formalism="fol", formula1="pred1(c1)", formula2="¬pred1(c1)",
        ground_truth="not_equivalent", answer="no", reply="[Answer] no", error=None,
    )
    assert storage.dumps(storage.judge_to_json(judged)) == storage.dumps({**asdict(judged), "kind": "judge"})

    header = storage.result_header("m", {}, None, True)
    path = tmp_path / "results.jsonl"
    with storage.ResultWriter(path, header) as writer:
        for r in records:
            writer.write(storage.round_trip_to_json(r))
    assert storage.read_results(path)[1] == records
