"""The three workloads: what set-up builds and what one measured pass runs.

A pass is the unit that is repeated for `--seconds`; every pass of a run
gets the same inputs, so its outputs must be byte-identical each time.

Untraced passes call formaltrip as a user would: `run_round_trips` (the
body of `formaltrip run`, with an `on_record` hook for per-record
timestamps), then `formaltrip judge` and `formaltrip report` through
`cli.main`. Traced passes make the calls those commands make themselves,
with a span around each call into a layer, and must write the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from formaltrip import cli, report, storage
from formaltrip.pipeline import (
    JUDGE_COT,
    Provider,
    ProviderConfig,
    ProviderError,
    ResponseCache,
    compile_context,
    describe,
    interpret_context,
    load_template,
    load_template_set,
    parse_description,
    render_prompt,
    run_round_trips,
)
from formaltrip.pipeline import runner
from formaltrip.syntax import NonCompliant, extract_formal, parse_expression, simplify_expression
from formaltrip.syntax.printer import print_fol
from formaltrip.verify import (
    ProverBudget,
    clausify,
    find_countermodel,
    resolution_refute,
    universal_closure,
    verify_pair,
)
from formaltrip.verify.fol import REFUTED, SATURATED, difference_formula

from inputs import GrammarPlan, batch_files, build_dataset, tree_sha256
from spans import NULL_TRACER

# FOL budget of roundtrip-corrupt, passed to `run` and `judge` via --config.
# Step limits end every FOL phase before the 10 s default clock can: with the
# default budget, 25 of the first 105 depth-14 pairs ended Unknown after
# 20.3-21.3 s each because max_seconds applies per phase (see DESIGN.md).
CORRUPT_BUDGET = {"max_clauses": 1000, "max_model_domain": 1}
CORRUPT_WIDTH = 2  # = nproc of the 2-core reference machine


@dataclass(frozen=True)
class Workload:
    name: str
    plans: tuple[GrammarPlan, ...]
    provider: str | None = None  # None: the generate workload
    width: int = 1
    budget: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        # Small branching and several walks per grammar, with new walks in
        # every pass: a run's median pass averages over many random walks,
        # so it varies little from seed to seed.
        Workload("generate", (
            GrammarPlan("prop", depth=40, branching=8, walks=4, quota=2),
            GrammarPlan("fol", depth=40, branching=8, walks=4, quota=2),
            GrammarPlan("ksat3", depth=40, branching=6, walks=3, quota=2),
            GrammarPlan("regex", depth=40, branching=100, walks=1, quota=2),
        )),
        Workload("roundtrip-perfect", (
            GrammarPlan("prop", depth=16, branching=25, walks=6, quota=9, max_value=38),
            GrammarPlan("fol", depth=16, branching=25, walks=6, quota=9, max_value=38),
            GrammarPlan("regex", depth=40, branching=100, walks=1, quota=8),
        ), provider="perfect_oracle"),
        Workload("roundtrip-corrupt", (
            GrammarPlan("prop", depth=16, branching=25, walks=3, quota=4, max_value=40),
            GrammarPlan("fol", depth=16, branching=25, walks=3, quota=4, max_value=20),
            GrammarPlan("regex", depth=40, branching=100, walks=1, quota=8, max_value=20),
        ), provider="corrupting_oracle", width=CORRUPT_WIDTH, budget=CORRUPT_BUDGET),
    )
}


def prepare(workload: Workload, seed: int, out_dir: Path, tracer=NULL_TRACER) -> dict:
    """Set-up: build the round-trip datasets (nothing for generate)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, leaves = [], 0
    if workload.provider:
        for plan in workload.plans:
            _, written, seen = build_dataset(plan, seed, out_dir, tracer)
            paths += written
            leaves += seen
    return {"dataset_sha256": tree_sha256(paths) if paths else None, "leaves": leaves}


@dataclass
class PassResult:
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    leaves: int = 0
    bench_s: float = 0.0  # the benchmark's own checks inside the pass, not in wall_s
    run_s: float = 0.0
    run_records: int = 0
    judge_s: float = 0.0
    judge_pairs: int = 0
    record_latencies: list = field(default_factory=list)
    run_hashes: list = field(default_factory=list)  # results bytes after each run
    result_files: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)  # output kind -> sha256
    fol_pairs: list = field(default_factory=list)  # traced only: (left, right, status)
    cache_hits: int = 0
    noncompliant: int = 0
    peak_rss_mb: float = 0.0  # of the process that ran the pass


def output_hashes(workload: Workload, result: PassResult, dataset_sha256: str | None) -> dict:
    """sha256 of each kind of file a pass wrote (and of its input dataset)."""
    files = result.result_files
    if not workload.provider:
        return {"dataset": tree_sha256(files)}
    out = {"dataset": dataset_sha256}
    for kind in ("results", "judge", "summary"):
        picked = [p for p in files if p.name.startswith(kind)]
        if picked:
            out[kind] = tree_sha256(picked)
    return out


def run_pass(workload: Workload, seed: int, data_dir: Path, out_dir: Path,
             tracer=NULL_TRACER, index: int = 0) -> PassResult:
    """One pass into the fresh out_dir. Round trips read the set-up's
    datasets from data_dir; generate pass `index` walks the seed's
    index-th input set."""
    out_dir.mkdir(parents=True)
    result = PassResult()
    start = time.perf_counter()
    if workload.provider is None:
        _generate(workload, seed, index, out_dir, result, tracer)
    else:
        _round_trips(workload, seed, data_dir, out_dir, result, tracer)
    result.wall_s = time.perf_counter() - start - result.bench_s
    return result


# ---------------------------------------------------------------------------
# generate

def _generate(workload, seed, index, out_dir, result, tracer):
    for plan in workload.plans:
        records, paths, leaves = build_dataset(plan, seed, out_dir, tracer, stream=index)
        result.leaves += leaves
        read_back = 0
        for path in batch_files(paths):
            with tracer.span("storage.read_dataset"):
                read_back += len(storage.read_dataset(path))
        result.attempted += len(records)
        result.failed += len(records) - read_back
        result.result_files += paths


# ---------------------------------------------------------------------------
# round trips

def _round_trips(workload, seed, data_dir, out_dir, result, tracer):
    datasets = sorted(p for p in data_dir.glob("*_batch*.jsonl"))
    budget = ProverBudget(**workload.budget)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps({"budgets": workload.budget}), encoding="utf-8")
    repeats = 2 if workload.provider == "perfect_oracle" else 1  # cold, then warm
    for repeat in range(repeats):
        t0 = time.perf_counter()
        files = _run(workload, seed, budget, datasets, out_dir, result, tracer, timed=repeat == 0)
        t1 = time.perf_counter()
        result.run_s += t1 - t0
        result.run_hashes.append(tree_sha256(files))
        result.bench_s += time.perf_counter() - t1
    result.result_files = list(files)
    judge_files = []
    if workload.provider == "corrupting_oracle":
        t0 = time.perf_counter()
        if tracer is NULL_TRACER:
            _cli("judge", "--provider", "corrupting-oracle", "--balance", "--seed", str(seed),
                 "--config", str(config_path), "--output-dir", str(out_dir), "--results", *map(str, files))
        else:
            _traced_judge(workload, seed, budget, files, out_dir, result, tracer)
        t1 = time.perf_counter()
        result.judge_s = t1 - t0
        judge_files = sorted(out_dir.glob("judge_*.jsonl"))
        rows = [storage.read_judge_results(p)[1] for p in judge_files]
        result.judge_pairs = sum(map(len, rows))
        result.attempted += result.judge_pairs
        result.failed += sum(1 for rs in rows for r in rs if r.error)
        result.bench_s += time.perf_counter() - t1
    if tracer is NULL_TRACER:
        args = ["--results", *map(str, files)]
        if judge_files:
            args += ["--judge-results", *map(str, judge_files)]
        _cli("report", "--output-dir", str(out_dir / "report"), *args)
    else:
        _traced_report(files, judge_files, out_dir / "report", tracer)
    result.result_files += judge_files + [out_dir / "report" / "summary.json"]


def _cli(*argv):
    """Run a formaltrip command in-process, keeping its stdout out of the
    benchmark's own (whose last line is the result)."""
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"formaltrip {argv[0]} exited {code}: {captured.getvalue()}")


def effective_config(config: ProviderConfig, budget: ProverBudget) -> dict:
    """The run configuration `formaltrip run` hashes into result headers."""
    return {
        "provider": {
            "kind": config.kind,
            "model": config.model,
            "temperature": config.temperature,
            "max_tokens": config.max_tokens,
            "corruption_prob": config.corruption_prob,
            "seed": config.seed,
        },
        "shots": 0,
        "budgets": {
            "max_clauses": budget.max_clauses,
            "max_seconds": budget.max_seconds,
            "max_model_domain": budget.max_model_domain,
        },
    }


def _run(workload, seed, budget, datasets, out_dir, result, tracer, timed):
    """`formaltrip run` over every dataset file into out_dir."""
    config = ProviderConfig(kind=workload.provider, seed=seed)
    with tracer.span("storage.cache_load"):
        cache = ResponseCache(out_dir / "response_cache.jsonl")
    provider = Provider(config, cache=cache, budget=budget)
    effective = effective_config(config, budget)
    files = []
    for path in datasets:
        with tracer.span("storage.read_dataset"):
            records = storage.read_dataset(path)
        templates = load_template_set(records[0].formalism, 0)
        header = storage.result_header(config.model, effective, path, config.deterministic)
        files.append(out_dir / f"results_{path.stem}.jsonl")
        with storage.ResultWriter(files[-1], header) as writer:
            last = [time.perf_counter()]

            def on_record(rec, writer=writer, last=last):
                with tracer.span("storage.result_write", rec.record_id):
                    writer.write(storage.round_trip_to_json(rec))
                now = time.perf_counter()
                if timed:
                    result.record_latencies.append(now - last[0])
                last[0] = now
                result.attempted += 1
                result.failed += rec.error is not None
                result.noncompliant += rec.noncompliant_reason is not None
                result.run_records += 1

            if tracer is NULL_TRACER:
                run_round_trips(records, provider, templates, budget=budget,
                                width=workload.width, on_record=on_record)
            else:
                _traced_round_trips(records, provider, templates, budget, workload.width,
                                    on_record, result, tracer)
    return files


def _traced_round_trips(records, provider, templates, budget, width, on_record, result, tracer):
    """`run_round_trips` with the round trip's calls made here, in spans."""
    def one(record):
        return _traced_round_trip(record, provider, templates, budget, result, tracer)

    if width <= 1:
        for record in records:
            on_record(one(record))
        return
    with ThreadPoolExecutor(max_workers=width) as pool:
        for future in [pool.submit(one, r) for r in records]:
            on_record(future.result())


def _traced_round_trip(record, provider, templates, budget, result, tracer):
    """`runner.round_trip` for a deterministic provider, one span per call."""
    rid = record.id
    out = runner.RoundTripRecord(
        record_id=rid,
        formalism=record.formalism,
        grammar_id=record.grammar_id,
        batch_index=record.batch_index,
        category_metric=record.category_metric,
        category_value=record.category_value,
        expression=record.expression.canonical_text,
        model=provider.config.model,
        cfg_depth=record.cfg_depth,
        alphabet=sorted(record.vocabulary.get("alphabet", ()))
        if record.formalism == "regex" else None,
        prompt_ids=[templates.interpret.id, templates.compile.id],
    )
    try:
        with tracer.span("pipeline.templates.render", rid):
            prompt = render_prompt(templates.interpret, interpret_context(record.expression))
        with tracer.span("pipeline.providers.complete", rid):
            interpretation = provider.complete(prompt)
        out.interpretation = interpretation.text
        out.timings["interpret_seconds"] = 0.0
        with tracer.span("pipeline.templates.render", rid):
            prompt = render_prompt(templates.compile, compile_context(out.interpretation))
        with tracer.span("pipeline.providers.complete", rid):
            reply = provider.complete(prompt)
        out.raw_reply = reply.text
        out.timings["compile_seconds"] = 0.0
    except (ProviderError, ValueError) as e:
        out.error = f"{type(e).__name__}: {e}"
        return out
    result.cache_hits += interpretation.cached + reply.cached

    alphabet = set(record.vocabulary.get("alphabet", ())) if record.formalism == "regex" else None
    with tracer.span("syntax.extract", rid):
        extracted = extract_formal(out.raw_reply, record.formalism, alphabet)
    if isinstance(extracted, NonCompliant):
        out.noncompliant_reason = extracted.reason
        return out
    out.parsed = extracted.canonical_text
    verdict = _traced_verify(record.formalism, record.expression.ast, extracted.ast,
                             budget, alphabet or (), result, tracer, rid)
    out.timings["verify_seconds"] = 0.0
    out.verdict_status = verdict.status.value
    out.verdict_witness = runner.witness_payload(verdict)
    out.verdict_reason = verdict.reason
    return out


def _traced_verify(formalism, left, right, budget, alphabet, result, tracer, key):
    with tracer.span(f"verify.{formalism}", key):
        verdict = verify_pair(formalism, left, right, budget=budget, alphabet=alphabet)
    if formalism == "fol":
        result.fol_pairs.append((left, right, verdict.status.value))
    return verdict


def _traced_judge(workload, seed, budget, files, out_dir, result, tracer):
    """`formaltrip judge --balance` with its calls made here, in spans."""
    config = ProviderConfig(kind=workload.provider, seed=seed)
    cache = ResponseCache(out_dir / "response_cache.jsonl")
    provider = Provider(config, cache=cache, budget=budget)
    effective = effective_config(config, budget)
    effective["judge_style"] = JUDGE_COT
    for path in files:
        _, records = storage.read_results(path)
        pairs = []
        for r in records:
            if not r.compliant or r.verdict_status not in ("equivalent", "not_equivalent"):
                continue
            pairs.append((r.record_id, r.formalism, r.expression, r.parsed, r.verdict_status))
            alphabet = set(r.alphabet) if r.alphabet else None
            expr = parse_expression(r.formalism, r.expression, alphabet)
            with tracer.span("syntax.simplify", r.record_id):
                twin = simplify_expression(expr)
            if twin.canonical_text == expr.canonical_text:
                continue
            verdict = _traced_verify(r.formalism, expr.ast, twin.ast, budget, alphabet or (),
                                     result, tracer, r.record_id)
            if verdict.equivalent:
                pairs.append((f"{r.record_id}#pos", r.formalism, expr.canonical_text,
                              twin.canonical_text, "equivalent"))
        template = load_template(pairs[0][1], JUDGE_COT)
        header = storage.result_header(config.model, effective, path, config.deterministic)
        judge_path = out_dir / f"judge_{path.stem.removeprefix('results_')}.jsonl"
        with storage.ResultWriter(judge_path, header) as writer:
            for pair_id, formalism, f1, f2, truth in pairs:
                with tracer.span("pipeline.runner.judge", pair_id):
                    rec = runner.judge(pair_id, formalism, f1, f2, truth, provider, template)
                with tracer.span("storage.result_write", pair_id):
                    writer.write(storage.judge_to_json(rec))


def _traced_report(files, judge_files, out_dir, tracer):
    """`formaltrip report` with its calls made here, in spans."""
    batches = {p.stem: storage.read_results(p)[1] for p in files}
    judge_records = [r for p in judge_files for r in storage.read_judge_results(p)[1]]
    with tracer.span("report.summarize"):
        summary = report.summarize_run(batches, judge_records or None)
    report.write_report(summary, out_dir)


# ---------------------------------------------------------------------------
# traced side passes (outside the traced pass's wall time)

def codec_pass(data_dir: Path, tracer):
    """describe / parse_description over the dataset's expressions: the
    oracles call the NL codec inside `Provider.complete`."""
    for path in sorted(data_dir.glob("*_batch*.jsonl")):
        for record in storage.read_dataset(path):
            with tracer.span("pipeline.nl_codec.describe"):
                text = describe(record.expression)
            with tracer.span("pipeline.nl_codec.parse"):
                back = parse_description(text, record.formalism)
            if back.canonical_text != record.expression.canonical_text:
                raise AssertionError(f"NL codec does not round-trip {record.id}")


def fol_phases(left, right, budget: ProverBudget, tracer) -> tuple[str, int]:
    """`equivalent_fol` phase by phase, in its order: (status, clauses)."""
    f, g = universal_closure(left), universal_closure(right)
    if print_fol(f) == print_fol(g):
        return "equivalent", 0
    quick = min(2, budget.max_model_domain)
    with tracer.span("verify.fol.countermodel"):
        model = find_countermodel(f, g, budget, domain_sizes=range(1, quick + 1))
    if model is not None:
        return "not_equivalent", 0
    with tracer.span("verify.fol.clausify"):
        clauses = clausify(difference_formula(f, g))
    with tracer.span("verify.fol.resolution"):
        outcome = resolution_refute(clauses, budget)
    if outcome == REFUTED:
        return "equivalent", len(clauses)
    deeper = None
    if budget.max_model_domain > quick:
        with tracer.span("verify.fol.countermodel"):
            deeper = find_countermodel(
                f, g, budget, domain_sizes=range(quick + 1, budget.max_model_domain + 1))
    if outcome == SATURATED or deeper is not None:
        return "not_equivalent", len(clauses)
    return "unknown", len(clauses)
