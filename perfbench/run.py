"""formaltrip benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a formaltrip checkout; the package is imported from
`src/` as it stands. Set-up runs three times and each pass of the workload
once, every one in a fresh child process (child.py); passes repeat until
`--seconds` have gone by. `setup_s` and the end-to-end figures are medians.
The correctness gate checks every run, and a failed gate exits 1 without a
result line. With `--trace 1` one more pass runs in this process with spans
around the calls into each layer, and the per-layer metrics are printed
instead of the end-to-end ones. Run metadata goes to stderr and to
.perfbench_runs/. DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
WORKLOAD_NAMES = ("generate", "roundtrip-perfect", "roundtrip-corrupt")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}
# workload-specific figures: in the metadata of every run, and per-layer when traced
WORKLOAD_UNITS = {
    "grammar.derive.leaves_per_s": "1/s",
    "pipeline.runner.records_per_s": "1/s",
    "pipeline.runner.record_p50_ms": "ms",
    "pipeline.runner.record_p99_ms": "ms",
    "pipeline.runner.judge_pairs_per_s": "1/s",
    "pipeline.runner.failed_share": "ratio",
    "verify.decided_share": "ratio",
}
# traced figures: name -> (unit, span whose self time or count it sums)
SPAN_METRICS = {
    "grammar.derive.walk_s": ("s", "grammar.derive.walk"),
    **{f"grammar.derive.{g}.walk_s": ("s", f"grammar.derive.walk:{g}")
       for g in ("prop", "fol", "ksat3", "regex")},
    "grammar.vocab.instantiate_calls": ("count", "grammar.vocab.instantiate"),
    "grammar.vocab.instantiate_s": ("s", "grammar.vocab.instantiate"),
    "storage.write_dataset_s": ("s", "storage.write_dataset"),
    "storage.read_dataset_s": ("s", "storage.read_dataset"),
    "pipeline.templates.render_s": ("s", "pipeline.templates.render"),
    "pipeline.providers.complete_calls": ("count", "pipeline.providers.complete"),
    "pipeline.providers.complete_s": ("s", "pipeline.providers.complete"),
    "pipeline.nl_codec.describe_s": ("s", "pipeline.nl_codec.describe"),
    "pipeline.nl_codec.parse_s": ("s", "pipeline.nl_codec.parse"),
    "syntax.extract.s": ("s", "syntax.extract"),
    "storage.result_write_s": ("s", "storage.result_write"),
    "storage.cache_load_s": ("s", "storage.cache_load"),
    "verify.prop.calls": ("count", "verify.prop"),
    "verify.prop.s": ("s", "verify.prop"),
    "verify.regex.s": ("s", "verify.regex"),
    "verify.fol.s": ("s", "verify.fol"),
    "verify.fol.countermodel_s": ("s", "verify.fol.countermodel"),
    "verify.fol.clausify_s": ("s", "verify.fol.clausify"),
    "verify.fol.resolution_s": ("s", "verify.fol.resolution"),
    "pipeline.runner.judge_s": ("s", "pipeline.runner.judge"),
    "syntax.simplify.s": ("s", "syntax.simplify"),
    "report.summarize_s": ("s", "report.summarize"),
}
OTHER_TRACED_UNITS = {
    "grammar.derive.leaves": "count",
    "pipeline.providers.cache_hits": "count",
    "syntax.extract.noncompliant": "count",
    "verify.prop.p99_ms": "ms",
    "verify.fol.clauses": "count",
    "verify.fol.unknown": "count",
    "verify.fol.clock_trips": "count",
    "tracing.overhead_s": "s",
}
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _) in SPAN_METRICS.items()},
    **OTHER_TRACED_UNITS,
    **WORKLOAD_UNITS,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "formaltrip" / "__init__.py").is_file():
        print("error: src/formaltrip not found; run from the root of a formaltrip checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _bench(args, work)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work: Path) -> int:
    import gate
    import passes
    from spans import Tracer

    workload = passes.WORKLOADS[args.workload]
    common = ["--workload", workload.name, "--seed", str(args.seed)]
    setup_times, setups = [], []
    for i in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setups.append(_child("prepare", *common, "--out", str(work / f"data{i}")))
        setup_times.append(time.perf_counter() - t0)
    data_dir = work / "data0"
    dataset_sha256 = setups[0]["dataset_sha256"]

    def one_pass(index: int, out: Path) -> passes.PassResult:
        row = _child("pass", *common, "--out", str(out), "--data", str(data_dir),
                     "--dataset-sha256", str(dataset_sha256), "--index", str(index))
        return passes.PassResult(**row)

    # generate walks new inputs in every pass; the round trips repeat theirs
    results = []
    deadline = time.perf_counter() + args.seconds
    while len(results) < 2 or time.perf_counter() < deadline:
        i = len(results)
        results.append(one_pass(i, work / f"pass{i}"))
        if i:
            shutil.rmtree(work / f"pass{i}")
    first = results[0]
    repeats = results[1:] if workload.provider else [one_pass(0, work / "repeat")]

    findings = []
    if any(s != setups[0] for s in setups):
        findings.append(f"set-up is not deterministic: {setups}")
    for r in [first] + repeats:
        if r.hashes != first.hashes or len(set(r.run_hashes)) > 1:
            findings.append("a repeated pass wrote other bytes, or a warm run other than its cold run")
    findings += gate.check_golden(workload.name, args.seed, first.hashes, gate.load_golden())
    counts = {}
    if workload.provider:
        perfect = workload.provider == "perfect_oracle"
        pass_dir = work / "pass0"
        found, counts = gate.check_round_trips(sorted(pass_dir.glob("results_*.jsonl")), perfect, args.seed)
        findings += found
        findings += gate.check_summary(pass_dir / "report" / "summary.json", perfect)
        findings += gate.check_judge(sorted(pass_dir.glob("judge_*.jsonl")))

    e2e = _end_to_end(workload, results, setup_times)
    specific = _workload_metrics(results, counts)
    if args.trace:
        tracer = Tracer()
        traced = passes.run_pass(workload, args.seed, data_dir, work / "traced", tracer)
        if passes.output_hashes(workload, traced, dataset_sha256) != first.hashes:
            findings.append("the traced pass wrote other bytes than the untraced passes")
        layers, mismatches = _per_layer(workload, args.seed, work, data_dir, tracer, traced)
        if mismatches:
            findings.append(f"{mismatches} phase-by-phase FOL verdicts differ from verify_pair's")
        layers["tracing.overhead_s"] = traced.wall_s - e2e["wall_s"]
        metrics, units = {**layers, **specific}, PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS

    meta = _metadata(args, workload, results, first.hashes, counts, e2e, specific)
    print("perfbench-meta " + json.dumps(meta, sort_keys=True), file=sys.stderr)
    runs = ROOT / ".perfbench_runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if findings:
        for f in findings[:20]:
            print(f"gate: {f}", file=sys.stderr)
        print(f"error: correctness gate failed ({len(findings)} findings)", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


class ChildFailed(RuntimeError):
    pass


def _child(*argv) -> dict:
    """Run one step in a fresh process (child.py); its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"{argv[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _end_to_end(workload, results, setup_times) -> dict:
    """What every workload reports; an item is a derivation leaf on
    generate and a round-trip record on the round-trip workloads."""
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(r.wall_s for r in results),
        "items_per_s": statistics.median((r.run_records or r.leaves) / r.wall_s for r in results),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in results),
    }


def _workload_metrics(results, counts) -> dict:
    """Figures that only some workloads have; 0 where a workload has none."""
    latencies = sorted(x for r in results for x in r.record_latencies)
    compliant = sum(n for c in counts.values() for s, n in c.items() if s not in ("error", "noncompliant"))
    decided = sum(n for c in counts.values() for s, n in c.items() if s in ("equivalent", "not_equivalent"))
    run = [r for r in results if r.run_s]
    judged = [r for r in results if r.judge_s]
    return {
        "grammar.derive.leaves_per_s": statistics.median(r.leaves / r.wall_s for r in results),
        "pipeline.runner.records_per_s":
            statistics.median(r.run_records / r.run_s for r in run) if run else 0.0,
        "pipeline.runner.record_p50_ms": 1000 * _quantile(latencies, 0.50),
        "pipeline.runner.record_p99_ms": 1000 * _quantile(latencies, 0.99),
        "pipeline.runner.judge_pairs_per_s":
            statistics.median(r.judge_pairs / r.judge_s for r in judged) if judged else 0.0,
        "pipeline.runner.failed_share":
            sum(r.failed for r in results) / max(1, sum(r.attempted for r in results)),
        "verify.decided_share": decided / compliant if compliant else 0.0,
    }


def _quantile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _per_layer(workload, seed, work, data_dir, tracer, traced) -> tuple[dict, int]:
    """Per-layer figures from the traced pass and its side passes, and the
    number of FOL pairs whose phase-by-phase verdict differs."""
    import passes
    from spans import Tracer

    leaves = traced.leaves
    if workload.provider:  # the set-up walk, traced, on the round-trip workloads
        leaves = passes.prepare(workload, seed, work / "traced-data", tracer)["leaves"]
    passes.codec_pass(data_dir, tracer)
    budget = passes.ProverBudget(**workload.budget)
    phases = Tracer()
    clauses = unknown = mismatches = 0
    for left, right, status in traced.fol_pairs:
        got, n = passes.fol_phases(left, right, budget, phases)
        clauses += n
        unknown += got == "unknown"
        mismatches += got != status

    self_s: dict[str, float] = {}
    durations: dict[str, list] = {}
    for name, duration, own, key in tracer.self_times() + phases.self_times():
        names = [name, f"{name}:{key}"] if name == "grammar.derive.walk" else [name]
        for n in names:
            self_s[n] = self_s.get(n, 0.0) + own
            durations.setdefault(n, []).append(duration)
    metrics = {
        name: len(durations.get(span, ())) if unit == "count" else self_s.get(span, 0.0)
        for name, (unit, span) in SPAN_METRICS.items()
    }
    prop_ms = sorted(1000 * d for d in durations.get("verify.prop", ()))
    metrics.update({
        "grammar.derive.leaves": leaves,
        "pipeline.providers.cache_hits": traced.cache_hits,
        "syntax.extract.noncompliant": traced.noncompliant,
        "verify.prop.p99_ms": _quantile(prop_ms, 0.99),
        "verify.fol.clauses": clauses,
        "verify.fol.unknown": unknown,
        "verify.fol.clock_trips": sum(d >= budget.max_seconds for d in durations.get("verify.fol", ())),
    })
    return metrics, mismatches


def _metadata(args, workload, results, hashes, counts, e2e, specific) -> dict:
    src = ROOT / "src" / "formaltrip"
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "plans": [asdict(p) for p in workload.plans],
        "width": workload.width,
        "budgets": workload.budget,
        "passes": len(results),
        "pass_wall_s": [r.wall_s for r in results],
        "hashes": hashes,
        "verdict_counts": counts,
        "end_to_end": e2e,
        "workload_metrics": specific,
    }


def _git_sha() -> str | None:
    """HEAD's commit from .git, if the checkout is a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
