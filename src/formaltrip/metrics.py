"""Assessment metrics: syntactic compliance, round-trip accuracy, judge
confusion statistics, pass@k, and cross-batch summaries.

Compliance counts replies that parse; accuracy counts verified-equivalent
round trips over all scored records (a non-compliant reply is a failure).
Unknown verdicts are never folded into either side silently: they get
their own bucket and accuracy is also reported with them excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean, pstdev, stdev

from .pipeline.runner import JudgeRecord, RoundTripRecord


class MetricsError(ValueError):
    pass


@dataclass
class BucketStats:
    """Counts for one group of round-trip records, and the ratios of them.

    A transport-errored record measures the network, not the model, so it
    counts only as `errored`; every other record is a scoreable sample.
    """

    samples: int = 0
    compliant: int = 0
    equivalent: int = 0
    unknown: int = 0
    errored: int = 0

    def add(self, record: RoundTripRecord) -> None:
        if record.errored:
            self.errored += 1
            return
        self.samples += 1
        self.compliant += record.compliant
        self.equivalent += record.verdict_status == "equivalent"
        self.unknown += record.verdict_status == "unknown"

    def _of_samples(self, count: int) -> float:
        if not self.samples:
            raise MetricsError("no scoreable records")
        return count / self.samples

    @property
    def compliance(self) -> float:
        return self._of_samples(self.compliant)

    @property
    def accuracy(self) -> float:
        return self._of_samples(self.equivalent)

    @property
    def unknown_rate(self) -> float:
        return self._of_samples(self.unknown)

    @property
    def accuracy_excluding_unknown(self) -> float | None:
        """None when no sample has a decided verdict."""
        decided = self.samples - self.unknown
        return self.equivalent / decided if decided else None

    @property
    def accuracy_all_records(self) -> float:
        """Alternative denominator counting errored records as failures."""
        if not self.samples + self.errored:
            raise MetricsError("no records")
        return self.equivalent / (self.samples + self.errored)


def tally(records: list[RoundTripRecord]) -> BucketStats:
    stats = BucketStats()
    for r in records:
        stats.add(r)
    return stats


def judge_scores(records: list[JudgeRecord]) -> dict:
    """Confusion counts and scores of judge answers; the positive class is
    "equivalent", and an unparseable answer counts as the wrong prediction.
    A pair whose judge request failed (`error` set) counts only in `pairs`.
    A score whose denominator is zero is 1.0 and named in `zero_denominator`."""
    if not records:
        raise MetricsError("no judge records")
    counts = dict.fromkeys(("tp", "fp", "tn", "fn"), 0)
    unparseable = 0
    for r in records:
        if r.error:
            continue
        positive = r.ground_truth == "equivalent"
        if r.answer == "unparseable":
            unparseable += 1
            said_yes = not positive
        else:
            said_yes = r.answer == "yes"
        counts[("t" if said_yes == positive else "f") + ("p" if said_yes else "n")] += 1
    tp, fp, tn, fn = counts.values()
    ratios = {
        "precision": (tp, tp + fp),
        "sensitivity": (tp, tp + fn),
        "specificity": (tn, tn + fp),
        "f1": (2 * tp, 2 * tp + fp + fn),
    }
    return {
        "pairs": len(records),
        **counts,
        "unparseable": unparseable,
        **{name: num / den if den else 1.0 for name, (num, den) in ratios.items()},
        "zero_denominator": sorted(name for name, (_, den) in ratios.items() if not den),
    }


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


def batch_stats(values: list[float]) -> dict:
    """The summary row of per-batch values: mean, population `std` and sample
    `std_sample` (0.0 for a single value, which sets `single_sample`)."""
    if not values:
        raise MetricsError("need at least one batch value")
    return {
        "values": list(values),
        "mean": fmean(values),
        "std": pstdev(values),
        "std_sample": stdev(values) if len(values) > 1 else 0.0,
        "single_sample": len(values) == 1,
    }
