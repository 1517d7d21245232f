"""Report assembly: a machine-readable summary, a plain-text table, and a
per-category CSV suitable for plotting.

All floats are rounded to four decimals before serialization so reports
from deterministic runs are byte-reproducible.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from . import metrics as m
from .grammar.dataset import check_metric, expression_metric_value
from .pipeline.runner import JudgeRecord, RoundTripRecord
from .storage import dumps
from .syntax import parse_expression
from .syntax.parse import DIGIT_ALPHABET


def r4(x):
    """x with every float in it, inside lists and dicts too, rounded to four
    decimals."""
    if isinstance(x, float):
        return round(x, 4)
    if isinstance(x, list):
        return [r4(v) for v in x]
    if isinstance(x, dict):
        return {k: r4(v) for k, v in x.items()}
    return x


def rebucket(records: list[RoundTripRecord], metric: str) -> list[RoundTripRecord]:
    """Re-categorize records under a different complexity metric."""
    out = []
    for r in records:
        check_metric(metric, r.formalism)
        alphabet = frozenset(r.alphabet) if r.alphabet else DIGIT_ALPHABET
        expr = parse_expression(r.formalism, r.expression, alphabet)
        value = expression_metric_value(expr, metric, cfg_depth=r.cfg_depth, alphabet=alphabet)
        out.append(replace(r, category_metric=metric, category_value=value))
    return out


def summarize_run(
    batches: dict[str, list[RoundTripRecord]],
    judge_records: list[JudgeRecord] | None = None,
) -> dict:
    """Aggregate one model's result batches into the summary structure."""
    if not any(batches.values()):
        raise m.MetricsError("no records to summarize")
    run = m.BucketStats()
    categories: dict = {}  # category value -> BucketStats
    per_batch = {}
    comp_values, acc_values = [], []
    for name in sorted(batches):
        rows = batches[name]
        stats = m.BucketStats()
        for r in rows:
            stats.add(r)
            run.add(r)
            categories.setdefault(r.category_value, m.BucketStats()).add(r)
        row = per_batch[name] = {"records": len(rows)}
        if not stats.samples:  # nothing to score: null, and no batch_stats value
            row.update(compliance=None, accuracy=None, unknown_rate=None)
            continue
        comp_values.append(stats.compliance)
        acc_values.append(stats.accuracy)
        row.update(
            compliance=r4(stats.compliance),
            accuracy=r4(stats.accuracy),
            unknown_rate=r4(stats.unknown_rate),
        )
    first = next(r for rows in batches.values() for r in rows)
    decided = run.accuracy_excluding_unknown
    summary = {
        "records": run.samples + run.errored,
        "errored": run.errored,
        "model": first.model,
        "formalism": first.formalism,
        "grammar_id": first.grammar_id,
        "category_metric": first.category_metric,
        "compliance": r4(run.compliance),
        "accuracy": r4(run.accuracy),
        "accuracy_excluding_unknown": None if decided is None else r4(decided),
        "accuracy_all_records": r4(run.accuracy_all_records),
        "unknown_rate": r4(run.unknown_rate),
        "batches": per_batch,
        "batch_stats": {
            "compliance": r4(m.batch_stats(comp_values)),
            "accuracy": r4(m.batch_stats(acc_values)),
        },
        "categories": {
            str(value): {
                **vars(b),
                "compliance": r4(b.compliance) if b.samples else None,
                "accuracy": r4(b.accuracy) if b.samples else None,
            }
            for value, b in sorted(categories.items(), key=lambda kv: (isinstance(kv[0], str), kv[0]))
        },
    }
    if judge_records:
        summary["judge"] = r4(m.judge_scores(judge_records))
    return summary


def summary_text(summary: dict) -> str:
    lines = [
        f"model: {summary['model']}   grammar: {summary['grammar_id']}   "
        f"metric: {summary['category_metric']}",
        f"records: {summary['records']}   errored: {summary['errored']}",
        f"compliance: {summary['compliance']:.4f}   accuracy: {summary['accuracy']:.4f}   "
        f"unknown rate: {summary['unknown_rate']:.4f}",
        "",
        f"{'value':>10} {'samples':>8} {'compliance':>11} {'accuracy':>9} {'unknown':>8}",
    ]
    for value, row in summary["categories"].items():
        comp, acc, unk = _category_cells(row, "-")
        lines.append(f"{value:>10} {row['samples']:>8} {comp:>11} {acc:>9} {unk:>8}")
    stats = summary["batch_stats"]
    lines += [
        "",
        f"batch compliance: mean {stats['compliance']['mean']:.4f} "
        f"± {stats['compliance']['std']:.4f} (population std)",
        f"batch accuracy:   mean {stats['accuracy']['mean']:.4f} "
        f"± {stats['accuracy']['std']:.4f} (population std)",
    ]
    if "judge" in summary:
        j = summary["judge"]
        lines += [
            "",
            f"judge pairs: {j['pairs']}  tp {j['tp']}  fp {j['fp']}  tn {j['tn']}  "
            f"fn {j['fn']}  unparseable {j['unparseable']}",
            f"precision {j['precision']:.4f}  sensitivity {j['sensitivity']:.4f}  "
            f"specificity {j['specificity']:.4f}  f1 {j['f1']:.4f}",
        ]
    return "\n".join(lines) + "\n"


def category_csv(summary: dict) -> str:
    lines = ["metric_value,samples,compliance,accuracy,unknown_rate"]
    for value, row in summary["categories"].items():
        lines.append(",".join([str(value), str(row["samples"]), *_category_cells(row, "")]))
    return "\n".join(lines) + "\n"


def _category_cells(row: dict, blank: str) -> list[str]:
    """A category row's compliance, accuracy and unknown rate, `blank` where undefined."""
    unknown_rate = row["unknown"] / row["samples"] if row["samples"] else None
    return [blank if x is None else f"{x:.4f}" for x in (row["compliance"], row["accuracy"], unknown_rate)]


def write_report(summary: dict, out_dir: str | Path, stem: str = "summary") -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(dumps(summary) + "\n", encoding="utf-8")
    text_path = out_dir / f"{stem}.txt"
    text_path.write_text(summary_text(summary), encoding="utf-8")
    csv_path = out_dir / f"{stem}_categories.csv"
    csv_path.write_text(category_csv(summary), encoding="utf-8")
    return [json_path, text_path, csv_path]
