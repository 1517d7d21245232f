"""The benchmark's own checks, at tiny scale.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import passes  # noqa: E402
from inputs import GrammarPlan  # noqa: E402
from spans import Tracer  # noqa: E402

TINY_PLANS = (
    GrammarPlan("prop", depth=6, branching=6, walks=1, quota=2),
    GrammarPlan("fol", depth=6, branching=6, walks=1, quota=1),
    GrammarPlan("regex", depth=8, branching=10, walks=1, quota=2),
)
TINY = {
    name: replace(w, plans=TINY_PLANS if w.provider else tuple(replace(p, walks=1) for p in w.plans))
    for name, w in passes.WORKLOADS.items()
}


def _pass(tmp_path, name, tracer=None, label="pass"):
    workload = TINY[name]
    data = tmp_path / "data"
    if not data.exists():
        passes.prepare(workload, 3, data)
    kwargs = {"tracer": tracer} if tracer else {}
    result = passes.run_pass(workload, 3, data, tmp_path / label, **kwargs)
    return workload, result, passes.output_hashes(workload, result, None)


def test_each_workload_completes_and_passes_the_gate(tmp_path):
    for name in TINY:
        workload, result, hashes = _pass(tmp_path / name, name)
        assert result.attempted > 0 and result.failed == 0
        assert hashes
        if workload.provider:
            out = tmp_path / name / "pass"
            perfect = workload.provider == "perfect_oracle"
            findings, counts = gate.check_round_trips(sorted(out.glob("results_*.jsonl")), perfect, 3)
            assert findings == [] and counts
            assert gate.check_summary(out / "report" / "summary.json", perfect) == []
            assert gate.check_judge(sorted(out.glob("judge_*.jsonl"))) == []


def test_traced_and_untraced_passes_write_identical_bytes(tmp_path):
    for name in ("roundtrip-perfect", "roundtrip-corrupt"):
        _, _, untraced = _pass(tmp_path / name, name)
        tracer = Tracer()
        _, traced, traced_hashes = _pass(tmp_path / name, name, tracer, label="traced")
        assert traced_hashes == untraced
        names = {span[0] for span in tracer.spans}
        assert {"pipeline.providers.complete", "syntax.extract", "storage.result_write"} <= names


def test_run_step_writes_what_formaltrip_run_writes(tmp_path):
    for name in ("roundtrip-perfect", "roundtrip-corrupt"):
        workload, _, _ = _pass(tmp_path / name, name)
        config = tmp_path / name / "pass" / "config.json"
        cli_out = tmp_path / name / "cli"
        datasets = sorted(str(p) for p in (tmp_path / name / "data").glob("*_batch*.jsonl"))
        passes._cli("run", "--provider", workload.provider, "--seed", "3", "--width", str(workload.width),
                    "--config", str(config), "--output-dir", str(cli_out), "--dataset", *datasets)
        ours = sorted((tmp_path / name / "pass").glob("results_*.jsonl"))
        theirs = sorted(cli_out.glob("results_*.jsonl"))
        assert [p.name for p in ours] == [p.name for p in theirs]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(ours, theirs))


def test_fol_phases_agree_with_verify_pair(tmp_path):
    _, traced, _ = _pass(tmp_path, "roundtrip-corrupt", Tracer())
    budget = passes.ProverBudget(**passes.CORRUPT_BUDGET)
    assert traced.fol_pairs
    for left, right, status in traced.fol_pairs:
        assert passes.fol_phases(left, right, budget, Tracer())[0] == status


def test_gate_rejects_a_flipped_verdict(tmp_path):
    _pass(tmp_path, "roundtrip-corrupt")
    paths = sorted((tmp_path / "pass").glob("results_[pr]*.jsonl"))  # prop and regex
    assert gate.check_round_trips(paths, False, 3)[0] == []
    for flip in ({"not_equivalent": "equivalent"}, {"equivalent": "not_equivalent"}):
        for path in paths:
            rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
            target = next((r for r in rows[1:] if r["verdict_status"] in flip
                           and (r["parsed"] != r["expression"] or "not_equivalent" in flip.values())), None)
            if target:
                break
        assert target is not None, flip
        original = path.read_text(encoding="utf-8")
        target["verdict_status"] = flip[target["verdict_status"]]
        target["verdict_witness"] = None
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        findings, _ = gate.check_round_trips(paths, False, 3)
        assert any(target["record_id"] in f for f in findings)
        path.write_text(original, encoding="utf-8")


def test_golden_hashes_only_bind_the_pinned_seed():
    golden = {"pinned_seed": 1, "hashes": {"generate": {"dataset": "a"}}}
    assert gate.check_golden("generate", 1, {"dataset": "a"}, golden) == []
    assert gate.check_golden("generate", 1, {"dataset": "b"}, golden)
    assert gate.check_golden("generate", 2, {"dataset": "b"}, golden) == []
