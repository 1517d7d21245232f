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


def r4(x: float) -> float:
    return round(x, 4)


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
    all_records = [r for rows in batches.values() for r in rows]
    if not all_records:
        raise m.MetricsError("no records to summarize")
    overall_compliance, breakdown = m.compliance(all_records)
    overall_accuracy, _ = m.accuracy(all_records)
    decided_accuracy = m.accuracy_excluding_unknown(all_records)

    per_batch = {}
    comp_values, acc_values = [], []
    for name in sorted(batches):
        rows = batches[name]
        if all(r.errored for r in rows):  # nothing to score: null, and no batch_stats value
            per_batch[name] = {
                "records": len(rows), "compliance": None, "accuracy": None, "unknown_rate": None,
            }
            continue
        c, _ = m.compliance(rows)
        a, _ = m.accuracy(rows)
        comp_values.append(c)
        acc_values.append(a)
        per_batch[name] = {
            "records": len(rows),
            "compliance": r4(c),
            "accuracy": r4(a),
            "unknown_rate": r4(m.unknown_rate(rows)),
        }

    comp_stats = m.batch_stats(comp_values)
    acc_stats = m.batch_stats(acc_values)

    categories = {}
    for value in sorted(breakdown.buckets, key=lambda v: (isinstance(v, str), v)):
        b = breakdown.buckets[value]
        categories[str(value)] = {
            "samples": b.samples,
            "compliant": b.compliant,
            "equivalent": b.equivalent,
            "unknown": b.unknown,
            "errored": b.errored,
            "compliance": r4(b.compliant / b.samples) if b.samples else None,
            "accuracy": r4(b.equivalent / b.samples) if b.samples else None,
        }

    summary = {
        "records": len(all_records),
        "errored": sum(1 for r in all_records if r.errored),
        "model": all_records[0].model,
        "formalism": all_records[0].formalism,
        "grammar_id": all_records[0].grammar_id,
        "category_metric": breakdown.metric,
        "compliance": r4(overall_compliance),
        "accuracy": r4(overall_accuracy),
        "accuracy_excluding_unknown": None if decided_accuracy is None else r4(decided_accuracy),
        "accuracy_all_records": r4(m.accuracy_all_records(all_records)),
        "unknown_rate": r4(m.unknown_rate(all_records)),
        "batches": per_batch,
        "batch_stats": {
            "compliance": _stats_row(comp_stats),
            "accuracy": _stats_row(acc_stats),
        },
        "categories": categories,
    }
    if judge_records:
        cm, scores = m.judge_scores(judge_records)
        summary["judge"] = {
            "pairs": len(judge_records),
            "tp": cm.tp,
            "fp": cm.fp,
            "tn": cm.tn,
            "fn": cm.fn,
            "unparseable": cm.unparseable,
            "precision": r4(scores.precision),
            "sensitivity": r4(scores.sensitivity),
            "specificity": r4(scores.specificity),
            "f1": r4(scores.f1),
            "zero_denominator": sorted(scores.zero_denominator),
        }
    return summary


def _stats_row(stats: m.BatchStatistics) -> dict:
    return {
        "values": [r4(v) for v in stats.values],
        "mean": r4(stats.mean),
        "std": r4(stats.std),
        "std_sample": r4(stats.std_sample),
        "single_sample": stats.single_sample,
    }


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
        comp = "-" if row["compliance"] is None else f"{row['compliance']:.4f}"
        acc = "-" if row["accuracy"] is None else f"{row['accuracy']:.4f}"
        unk = f"{row['unknown'] / row['samples']:.4f}" if row["samples"] else "-"
        lines.append(
            f"{value:>10} {row['samples']:>8} {comp:>11} {acc:>9} {unk:>8}"
        )
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
        comp = "" if row["compliance"] is None else f"{row['compliance']:.4f}"
        acc = "" if row["accuracy"] is None else f"{row['accuracy']:.4f}"
        unk = f"{row['unknown'] / row['samples']:.4f}" if row["samples"] else ""
        lines.append(f"{value},{row['samples']},{comp},{acc},{unk}")
    return "\n".join(lines) + "\n"


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
