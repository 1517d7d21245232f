"""Command-line surface: generate, run, judge, report, verify.

Exit codes for `verify`: 0 equivalent, 1 not equivalent, 2 unknown.
Other commands exit nonzero on invalid input or missing files.
"""

from __future__ import annotations

import argparse
import glob
import json
import logging
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import report as report_mod
from . import storage
from .grammar import (
    ALL_METRICS,
    BUILTIN_GRAMMARS,
    GenerationConfig,
    VocabularyConfig,
    generate_dataset,
    infer_formalism,
    load_grammar,
)
from .metrics import MetricsError
from .pipeline import (
    JUDGE_COT,
    JUDGE_YESNO,
    Provider,
    ProviderConfig,
    ResponseCache,
    load_template,
    load_template_set,
    run_round_trips,
)
from .pipeline.runner import judge as judge_pair
from .syntax import parse_expression, simplify_expression
from .verify import ProverBudget, verify_pair

logger = logging.getLogger("formaltrip")

PROVIDER_SHORTHANDS = {
    "perfect-oracle": "perfect_oracle",
    "corrupting-oracle": "corrupting_oracle",
    "replay": "scripted_replay",
    "http": "http_chat",
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError, MetricsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


# every vocabulary setting but the naming mode, which --grammar fol_english picks
_VOCAB_FIELDS = [f for f in fields(VocabularyConfig) if f.name != "naming_mode"]


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formaltrip",
        description="Grammar-synthesized formal-syntax datasets, LLM round trips, "
        "and equivalence verification.",
    )
    parser.add_argument("--config", help="JSON config file (provider, budgets, concurrency)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir", default="out")
    parser.add_argument("--verbose", action="store_true")

    # global flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--output-dir", default=argparse.SUPPRESS)
    common.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(required=True)

    g = sub.add_parser("generate", parents=[common], help="synthesize a dataset from a grammar")
    g.add_argument("--grammar", required=True,
                   help="ksat3 | prop | fol | fol_english | regex | path to a rule file")
    generation = GenerationConfig()
    for name in ("depth", "branching", "sample_count", "batches"):
        g.add_argument(_flag(name), type=int, default=getattr(generation, name))
    g.add_argument("--metric", default=None, help=" | ".join(ALL_METRICS))
    for f in _VOCAB_FIELDS:
        g.add_argument(_flag(f.name), type=float if isinstance(f.default, float) else int,
                       default=f.default)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", parents=[common], help="round-trip a dataset through a provider")
    r.add_argument("--provider", default=None,
                   help="perfect-oracle | corrupting-oracle | replay | http "
                        "(overrides --config)")
    r.add_argument("--dataset", required=True, nargs="+",
                   help="dataset batch file(s) or globs")
    r.add_argument("--shots", type=int, default=0, choices=(0, 2))
    r.add_argument("--fixtures", default=None, help="replay fixtures jsonl")
    r.add_argument("--resume", action="store_true")
    r.add_argument("--width", type=int, default=None, help="concurrent requests")
    r.set_defaults(func=cmd_run)

    j = sub.add_parser("judge", parents=[common], help="ask the provider whether pairs are equivalent")
    j.add_argument("--provider", default=None)
    j.add_argument("--results", required=True, nargs="+",
                   help="result file(s) from a completed run")
    j.add_argument("--style", default="cot", choices=("cot", "yesno"))
    j.add_argument("--fixtures", default=None)
    j.add_argument("--balance", action="store_true",
                   help="add verifier-confirmed positive pairs by simplification")
    j.add_argument("--resume", action="store_true")
    j.set_defaults(func=cmd_judge)

    p = sub.add_parser("report", parents=[common], help="aggregate result files into a report")
    p.add_argument("--results", required=True, nargs="+",
                   help="round-trip result file(s) or globs")
    p.add_argument("--judge-results", nargs="*", default=[],
                   help="judge result file(s)")
    p.add_argument("--by", default=None,
                   help="re-categorize by a different metric before bucketing")
    p.set_defaults(func=cmd_report)

    v = sub.add_parser("verify", parents=[common], help="check two expressions for equivalence")
    v.add_argument("formalism", choices=("prop", "fol", "regex"))
    v.add_argument("left")
    v.add_argument("right")
    v.add_argument("--alphabet", default=None,
                   help="regex alphabet symbols, e.g. 012")
    v.set_defaults(func=cmd_verify)

    return parser


def _load_config(args) -> dict:
    if not args.config:
        return {}
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    concurrency = config.get("concurrency", 1)
    if type(concurrency) is not int or concurrency < 1:
        raise ValueError(f"config 'concurrency' must be an integer >= 1, not {concurrency!r}")
    return config


def _section(config: dict, name: str, cls) -> dict:
    """Config section `name`, checked against the fields of dataclass cls:
    each key must be a field, and each value of its default's type (an int
    may stand for a float)."""
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ValueError(f"config {name!r} must be an object")
    kinds = {f.name: type(f.default) for f in fields(cls)}
    for key, value in section.items():
        if key not in kinds:
            raise ValueError(f"unknown key {key!r} in config {name!r}")
        if type(value) is not kinds[key] and (type(value), kinds[key]) != (int, float):
            raise ValueError(f"config {name!r} key {key!r} must be of type "
                             f"{kinds[key].__name__}, not {value!r}")
    return section


def _provider_config(args, config: dict) -> ProviderConfig:
    section = dict(_section(config, "provider", ProviderConfig))
    if getattr(args, "provider", None):
        kind = PROVIDER_SHORTHANDS.get(args.provider, args.provider)
        section["kind"] = kind
    if getattr(args, "fixtures", None):
        section["fixtures_path"] = args.fixtures
    section.setdefault("seed", args.seed)
    if not section.get("kind"):
        raise ValueError("no provider configured (use --provider or --config)")
    return ProviderConfig(**section)


def _budget(config: dict) -> ProverBudget:
    return ProverBudget(**_section(config, "budgets", ProverBudget))


def _expand_paths(patterns) -> list[Path]:
    out: list[Path] = []
    for pattern in patterns:
        matches = sorted(glob.glob(pattern))
        if matches:
            out.extend(Path(m) for m in matches)
        elif Path(pattern).exists():
            out.append(Path(pattern))
        else:
            raise FileNotFoundError(f"no such dataset/result file: {pattern}")
    return out


# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    name = args.grammar
    vocab_kwargs = {f.name: getattr(args, f.name) for f in _VOCAB_FIELDS}
    if name == "fol_english":
        grammar = BUILTIN_GRAMMARS["fol"]
        vocab_kwargs["naming_mode"] = "english"
    elif name in BUILTIN_GRAMMARS:
        grammar = BUILTIN_GRAMMARS[name]
    else:
        grammar = load_grammar(Path(name).read_text(encoding="utf-8"), Path(name).stem)
    vocab = VocabularyConfig(**vocab_kwargs)
    metric = args.metric or ("cfg_depth" if infer_formalism(grammar) == "regex" else "operator_total")
    gen = GenerationConfig(
        depth=args.depth,
        branching=args.branching,
        sample_count=args.sample_count,
        metric=metric,
        batches=args.batches,
        seed=args.seed,
    )
    records, manifest = generate_dataset(grammar, vocab, gen)
    paths = storage.write_dataset(records, manifest, args.output_dir)
    print(f"wrote {manifest.total} records over {manifest.batches} batches:")
    for p in paths:
        print(f"  {p}")
    if manifest.warnings:
        print(f"{len(manifest.warnings)} underfilled categories (see manifest)")
    return 0


def _effective_run_config(provider_config: ProviderConfig, shots: int, budget: ProverBudget) -> dict:
    return {
        "provider": {
            "kind": provider_config.kind,
            "model": provider_config.model,
            "temperature": provider_config.temperature,
            "max_tokens": provider_config.max_tokens,
            "corruption_prob": provider_config.corruption_prob,
            "seed": provider_config.seed,
        },
        "shots": shots,
        "budgets": asdict(budget),
    }


def _open_provider(args, config: dict, budget: ProverBudget, shots: int) -> tuple[Provider, Path, dict]:
    """A provider whose reply cache lives in the output directory, that
    directory, and the run config that results headers hash. The directory
    is created only once the provider config is valid."""
    provider_config = _provider_config(args, config)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    provider = Provider(provider_config, cache=ResponseCache(out_dir / "response_cache.jsonl"), budget=budget)
    return provider, out_dir, _effective_run_config(provider_config, shots, budget)


def cmd_run(args) -> int:
    config = _load_config(args)
    budget = _budget(config)
    width = config.get("concurrency", 1) if args.width is None else args.width
    if width < 1:
        raise ValueError(f"--width must be at least 1, not {width}")
    provider, out_dir, effective = _open_provider(args, config, budget, args.shots)

    for dataset_path in _expand_paths(args.dataset):
        records = storage.read_dataset(dataset_path)
        if not records:
            raise ValueError(f"{dataset_path} holds no records")
        templates = load_template_set(records[0].formalism, args.shots)
        header = storage.result_header(
            provider.config.model, effective, dataset_path, provider.config.deterministic
        )
        result_path = out_dir / f"results_{dataset_path.stem}.jsonl"
        with storage.ResultWriter(result_path, header, resume=args.resume) as writer:
            done = writer.existing_ids
            outcomes = run_round_trips(
                records,
                provider,
                templates,
                budget=budget,
                width=width,
                skip_ids=done,
                on_record=lambda rec: writer.write(storage.round_trip_to_json(rec)),
            )
        print(f"{dataset_path.name}: {len(outcomes)} new records -> {result_path}")
    return 0


def cmd_judge(args) -> int:
    config = _load_config(args)
    budget = _budget(config)
    provider, out_dir, effective = _open_provider(args, config, budget, 0)
    style = JUDGE_COT if args.style == "cot" else JUDGE_YESNO
    effective["judge_style"] = style

    for result_path in _expand_paths(args.results):
        _, records = storage.read_results(result_path)
        pairs = []
        for r in records:
            if not r.compliant or r.verdict_status not in ("equivalent", "not_equivalent"):
                continue
            pairs.append((f"{r.record_id}", r.formalism, r.expression, r.parsed, r.verdict_status))
            if args.balance:
                pair = _balanced_positive(r, budget)
                if pair is not None:
                    pairs.append(pair)
        if not pairs:
            raise ValueError(f"{result_path} holds no judgeable pairs")
        template = load_template(pairs[0][1], style)
        header = storage.result_header(
            provider.config.model, effective, result_path, provider.config.deterministic
        )
        judge_path = out_dir / f"judge_{result_path.stem.removeprefix('results_')}.jsonl"
        with storage.ResultWriter(judge_path, header, resume=args.resume) as writer:
            done = writer.existing_ids
            n = 0
            for pair_id, formalism, f1, f2, truth in pairs:
                if pair_id in done:
                    continue
                rec = judge_pair(pair_id, formalism, f1, f2, truth, provider, template)
                writer.write(storage.judge_to_json(rec))
                n += 1
        print(f"{result_path.name}: judged {n} pairs -> {judge_path}")
    return 0


def _balanced_positive(record, budget):
    """A textually different, verifier-confirmed equivalent twin, if one exists."""
    expr = parse_expression(record.formalism, record.expression, record.alphabet or None)
    twin = simplify_expression(expr)
    if twin.canonical_text == expr.canonical_text:
        return None
    try:
        verdict = verify_pair(record.formalism, expr.ast, twin.ast, budget=budget)
    except Exception:  # a twin the verifier cannot check is no twin
        logger.warning("verifier failed on the twin of %s", record.record_id, exc_info=True)
        return None
    if not verdict.equivalent:
        return None
    return (
        f"{record.record_id}#pos",
        record.formalism,
        expr.canonical_text,
        twin.canonical_text,
        "equivalent",
    )


def cmd_report(args) -> int:
    batches, sources = {}, {}
    for path in _expand_paths(args.results):
        if path.stem in sources:
            raise ValueError(f"{sources[path.stem]} and {path} are both batch {path.stem!r}; "
                             "rename one of them")
        sources[path.stem] = path
        _, records = storage.read_results(path)
        if args.by:
            records = report_mod.rebucket(records, args.by)
        batches[path.stem] = records
    judge_records = []
    for path in _expand_paths(args.judge_results) if args.judge_results else []:
        _, rows = storage.read_judge_results(path)
        judge_records.extend(rows)
    summary = report_mod.summarize_run(batches, judge_records or None)
    paths = report_mod.write_report(summary, args.output_dir)
    print(report_mod.summary_text(summary))
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_verify(args) -> int:
    alphabet = set(args.alphabet) if args.alphabet else None
    left = parse_expression(args.formalism, _inline_or_file(args.left), alphabet)
    right = parse_expression(args.formalism, _inline_or_file(args.right), alphabet)
    config = _load_config(args)
    verdict = verify_pair(args.formalism, left.ast, right.ast, budget=_budget(config))
    print(f"verdict: {verdict.status.value}")
    if verdict.witness is not None:
        print(f"witness: {verdict.witness!r}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    return {"equivalent": 0, "not_equivalent": 1, "unknown": 2}[verdict.status.value]


def _inline_or_file(value: str) -> str:
    if value.startswith("@"):
        return Path(value[1:]).read_text(encoding="utf-8").strip()
    return value


if __name__ == "__main__":
    sys.exit(main())
