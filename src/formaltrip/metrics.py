"""Assessment metrics: syntactic compliance, round-trip accuracy, judge
confusion statistics, pass@k, and cross-batch summaries.

Compliance counts replies that parse; accuracy counts verified-equivalent
round trips over all scored records (a non-compliant reply is a failure).
Unknown verdicts are never folded into either side silently: they get
their own bucket and accuracy is also reported with them excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import fmean, pstdev, stdev

from .pipeline.runner import JudgeRecord, RoundTripRecord


class MetricsError(ValueError):
    pass


@dataclass
class BucketStats:
    samples: int = 0
    compliant: int = 0
    equivalent: int = 0
    unknown: int = 0
    errored: int = 0


@dataclass
class CategoryBreakdown:
    metric: str
    buckets: dict = field(default_factory=dict)  # category value -> BucketStats

    def bucket(self, value) -> BucketStats:
        if value not in self.buckets:
            self.buckets[value] = BucketStats()
        return self.buckets[value]


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0
    unparseable: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass
class JudgeScores:
    precision: float
    sensitivity: float
    specificity: float
    f1: float
    zero_denominator: set[str] = field(default_factory=set)


@dataclass
class BatchStatistics:
    values: list[float]
    mean: float
    std: float  # population
    std_sample: float
    single_sample: bool = False


def _scoreable(records: list[RoundTripRecord]) -> list[RoundTripRecord]:
    """Transport-errored records measure the network, not the model."""
    return [r for r in records if not r.errored]


def _breakdown(records: list[RoundTripRecord]) -> CategoryBreakdown:
    metric = records[0].category_metric if records else "operator_total"
    breakdown = CategoryBreakdown(metric=metric)
    for r in records:
        b = breakdown.bucket(r.category_value)
        if r.errored:
            b.errored += 1
            continue
        b.samples += 1
        if r.compliant:
            b.compliant += 1
        if r.verdict_status == "equivalent":
            b.equivalent += 1
        elif r.verdict_status == "unknown":
            b.unknown += 1
    return breakdown


def compliance(records: list[RoundTripRecord]) -> tuple[float, CategoryBreakdown]:
    scored = _scoreable(records)
    if not scored:
        raise MetricsError("no scoreable records")
    value = sum(1 for r in scored if r.compliant) / len(scored)
    return value, _breakdown(records)


def accuracy(records: list[RoundTripRecord]) -> tuple[float, CategoryBreakdown]:
    scored = _scoreable(records)
    if not scored:
        raise MetricsError("no scoreable records")
    value = sum(1 for r in scored if r.verdict_status == "equivalent") / len(scored)
    return value, _breakdown(records)


def unknown_rate(records: list[RoundTripRecord]) -> float:
    scored = _scoreable(records)
    if not scored:
        raise MetricsError("no scoreable records")
    return sum(1 for r in scored if r.verdict_status == "unknown") / len(scored)


def accuracy_excluding_unknown(records: list[RoundTripRecord]) -> float | None:
    """None when no scoreable record has a decided verdict."""
    scored = [r for r in _scoreable(records) if r.verdict_status != "unknown"]
    if not scored:
        return None
    return sum(1 for r in scored if r.verdict_status == "equivalent") / len(scored)


def accuracy_all_records(records: list[RoundTripRecord]) -> float:
    """Alternative denominator counting transport-errored samples as failures."""
    if not records:
        raise MetricsError("no records")
    return sum(1 for r in records if r.verdict_status == "equivalent") / len(records)


def judge_scores(records: list[JudgeRecord]) -> tuple[ConfusionMatrix, JudgeScores]:
    """Positive class is "equivalent"; an unparseable answer scores as the
    wrong prediction against its ground truth."""
    if not records:
        raise MetricsError("no judge records")
    cm = ConfusionMatrix()
    for r in records:
        positive = r.ground_truth == "equivalent"
        if r.answer == "unparseable":
            cm.unparseable += 1
            if positive:
                cm.fn += 1
            else:
                cm.fp += 1
            continue
        said_yes = r.answer == "yes"
        if positive and said_yes:
            cm.tp += 1
        elif positive:
            cm.fn += 1
        elif said_yes:
            cm.fp += 1
        else:
            cm.tn += 1
    flags: set[str] = set()

    def ratio(num: int, den: int, name: str) -> float:
        if den == 0:
            flags.add(name)
            return 1.0
        return num / den

    scores = JudgeScores(
        precision=ratio(cm.tp, cm.tp + cm.fp, "precision"),
        sensitivity=ratio(cm.tp, cm.tp + cm.fn, "sensitivity"),
        specificity=ratio(cm.tn, cm.tn + cm.fp, "specificity"),
        f1=ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn, "f1"),
        zero_denominator=flags,
    )
    return cm, scores


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that at least one of k draws from n samples with c correct
    is correct: 1 - C(n-c, k) / C(n, k)."""
    if k > n:
        raise MetricsError(f"k={k} exceeds samples per task n={n}")
    if not 0 <= c <= n:
        raise MetricsError(f"correct count c={c} outside [0, {n}]")
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


def pass_at_k_mean(tasks: list[tuple[int, int]], k: int) -> float:
    if not tasks:
        raise MetricsError("no tasks")
    return fmean(pass_at_k(n, c, k) for n, c in tasks)


def batch_stats(values: list[float]) -> BatchStatistics:
    if not values:
        raise MetricsError("need at least one batch value")
    if len(values) == 1:
        return BatchStatistics(list(values), values[0], 0.0, 0.0, single_sample=True)
    return BatchStatistics(
        list(values),
        fmean(values),
        pstdev(values),
        stdev(values),
    )
