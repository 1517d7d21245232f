import pytest
from hypothesis import assume, given, strategies as st

from formaltrip.metrics import (
    BucketStats,
    MetricsError,
    batch_stats,
    judge_scores,
    pass_at_k,
    pass_at_k_mean,
    tally,
)
from formaltrip.pipeline.runner import JudgeRecord, RoundTripRecord
from formaltrip.report import r4, summarize_run


def rt(record_id="r", value=1, verdict=None, compliant=True, error=None):
    return RoundTripRecord(
        record_id=record_id,
        formalism="prop",
        grammar_id="prop",
        batch_index=0,
        category_metric="operator_total",
        category_value=value,
        expression="p1",
        model="m",
        parsed="p1" if compliant else None,
        noncompliant_reason=None if compliant else "nope",
        verdict_status=verdict,
        error=error,
    )


def jr(truth, answer, error=None):
    return JudgeRecord(
        pair_id="p",
        formalism="prop",
        formula1="p1",
        formula2="p1",
        ground_truth=truth,
        answer=answer,
        error=error,
    )


# --- compliance ---------------------------------------------------------------

def test_compliance_ratio():
    stats = tally([rt(compliant=True)] * 3 + [rt(compliant=False)])
    assert stats.compliance == 0.75
    assert stats.samples == 4


def test_compliance_excludes_transport_errors():
    stats = tally([rt(verdict="equivalent"), rt(error="Timeout: x", compliant=False)])
    assert stats.compliance == 1.0
    assert (stats.samples, stats.errored) == (1, 1)


def test_empty_records_error():
    with pytest.raises(MetricsError):
        tally([]).compliance
    with pytest.raises(MetricsError):
        tally([rt(error="boom")]).accuracy
    with pytest.raises(MetricsError):
        tally([rt(error="boom")]).unknown_rate
    with pytest.raises(MetricsError):
        BucketStats().accuracy_all_records


# --- accuracy -------------------------------------------------------------------

def test_accuracy_counts_noncompliant_as_failure():
    records = [
        rt(verdict="equivalent"),
        rt(verdict="not_equivalent"),
        rt(compliant=False),
        rt(verdict="equivalent"),
    ]
    assert tally(records).accuracy == 0.5


def test_unknown_tracked_separately():
    stats = tally([rt(verdict="equivalent"), rt(verdict="unknown")])
    assert stats.accuracy == 0.5
    assert stats.unknown_rate == 0.5
    assert stats.unknown == 1
    assert stats.accuracy_excluding_unknown == 1.0


def test_accuracy_excluding_unknown_is_none_when_nothing_is_decided():
    assert tally([rt(verdict="unknown"), rt(error="Timeout")]).accuracy_excluding_unknown is None


def test_both_denominators_available():
    stats = tally([rt(verdict="equivalent"), rt(error="Timeout")])
    assert stats.accuracy == 1.0
    assert stats.accuracy_all_records == 0.5


# --- judge scores -----------------------------------------------------------------

def test_confusion_matrix_formulas():
    records = (
        [jr("equivalent", "yes")] * 2
        + [jr("not_equivalent", "yes")]
        + [jr("not_equivalent", "no")]
    )
    scores = judge_scores(records)
    assert [scores[k] for k in ("tp", "fp", "tn", "fn")] == [2, 1, 1, 0]
    assert scores["precision"] == pytest.approx(2 / 3)
    assert scores["sensitivity"] == 1.0
    assert scores["specificity"] == 0.5
    assert scores["f1"] == pytest.approx(0.8)


def test_all_yes_judge_on_all_positive_truth():
    scores = judge_scores([jr("equivalent", "yes")] * 5)
    assert scores["precision"] == 1.0
    assert scores["specificity"] == 1.0
    assert scores["zero_denominator"] == ["specificity"]


def test_all_true_negative_zero_denominators_are_sorted():
    scores = judge_scores([jr("not_equivalent", "no")] * 3)
    assert scores["zero_denominator"] == ["f1", "precision", "sensitivity"]
    assert scores["specificity"] == 1.0


def test_perfect_agreement_f1():
    scores = judge_scores([jr("equivalent", "yes")] * 3 + [jr("not_equivalent", "no")] * 3)
    assert scores["f1"] == 1.0
    assert scores["zero_denominator"] == []


def test_unparseable_scores_as_wrong():
    scores = judge_scores([jr("equivalent", "unparseable"), jr("not_equivalent", "unparseable")])
    assert [scores[k] for k in ("fn", "fp", "unparseable")] == [1, 1, 2]
    assert scores["tp"] + scores["fp"] + scores["tn"] + scores["fn"] == scores["pairs"] == 2


def test_an_errored_judge_pair_counts_only_as_a_pair():
    # a failed request keeps the default answer "unparseable", but the judge gave none
    errored = jr("equivalent", "unparseable", error="Timeout: no reply")
    scores = judge_scores([errored, jr("equivalent", "yes")])
    assert scores["pairs"] == 2
    assert [scores[k] for k in ("tp", "fp", "tn", "fn", "unparseable")] == [1, 0, 0, 0, 0]
    assert scores["sensitivity"] == 1.0


def test_empty_judge_records_error():
    with pytest.raises(MetricsError):
        judge_scores([])


# --- pass@k ---------------------------------------------------------------------

def test_pass_at_k_values():
    assert pass_at_k(1, 1, 1) == 1.0
    assert pass_at_k(5, 0, 3) == 0.0
    assert pass_at_k(5, 2, 3) == 0.9


def test_pass_at_1_with_single_sample_is_accuracy():
    assert pass_at_k(1, 0, 1) == 0.0
    assert pass_at_k_mean([(1, 1), (1, 0)], 1) == 0.5


def test_pass_at_k_guards():
    with pytest.raises(MetricsError):
        pass_at_k(3, 1, 4)
    with pytest.raises(MetricsError):
        pass_at_k(3, 4, 1)


@given(
    st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=n),
        )
    )
)
def test_pass_at_k_monotone_in_k(nc):
    n, c = nc
    values = [pass_at_k(n, c, k) for k in range(1, n + 1)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


# --- batch stats ------------------------------------------------------------------

def test_constant_series():
    s = batch_stats([0.5, 0.5])
    assert (s["mean"], s["std"]) == (0.5, 0.0)


def test_symmetric_two_point_series():
    s = batch_stats([0.0, 1.0])
    assert (s["mean"], s["std"]) == (0.5, 0.5)


def test_single_batch_flagged():
    s = batch_stats([0.7])
    assert s["single_sample"] and s["std"] == 0.0


def test_bucket_counts_sum_to_totals():
    records = [
        rt(record_id=f"r{i}", value=i % 3, verdict="equivalent" if i % 2 else None,
           compliant=bool(i % 2)) for i in range(12)
    ]
    buckets = {}
    for r in records:
        buckets.setdefault(r.category_value, BucketStats()).add(r)
    total = tally(records)
    assert sum(b.samples for b in buckets.values()) == total.samples == len(records)
    assert sum(b.compliant for b in buckets.values()) == total.compliant == 6
    assert total.accuracy <= total.compliance


# --- the summary agrees with its own counts ------------------------------------------

OUTCOMES = ("errored", "noncompliant", "equivalent", "not_equivalent", "unknown")


def outcome_record(outcome, value):
    if outcome == "errored":
        return rt(value=value, compliant=False, error="Timeout: x")
    if outcome == "noncompliant":
        return rt(value=value, compliant=False)
    return rt(value=value, verdict=outcome)


round_trip_records = st.builds(
    outcome_record, st.sampled_from(OUTCOMES), st.sampled_from([0, 1, 2, 5, "deep"])
)
judge_sets = st.one_of(
    st.lists(
        st.builds(
            jr,
            st.sampled_from(["equivalent", "not_equivalent"]),
            st.sampled_from(["yes", "no", "unparseable"]),
        ),
        max_size=10,
    ),
    st.integers(min_value=1, max_value=4).map(lambda n: [jr("not_equivalent", "no")] * n),
)


def outcome_of(r):
    if r.errored:
        return "errored"
    return r.verdict_status if r.compliant else "noncompliant"


def ratio(num, den):
    return r4(num / den) if den else None


@given(
    st.dictionaries(
        st.sampled_from(["b0", "b1", "b2"]), st.lists(round_trip_records, max_size=8), min_size=1
    ),
    judge_sets,
)
def test_summary_ratios_are_its_counts_over_their_denominators(batches, judged):
    records = [r for rows in batches.values() for r in rows]
    assume(any(not r.errored for r in records))
    summary = summarize_run(batches, judged or None)

    count = {o: sum(1 for r in records if outcome_of(r) == o) for o in OUTCOMES}
    samples = len(records) - count["errored"]
    compliant = samples - count["noncompliant"]
    categories = summary["categories"].values()
    assert sum(c["samples"] for c in categories) == samples
    assert sum(c["compliant"] for c in categories) == compliant
    assert sum(c["equivalent"] for c in categories) == count["equivalent"]
    assert sum(c["unknown"] for c in categories) == count["unknown"]
    assert sum(c["errored"] for c in categories) == count["errored"] == summary["errored"]
    assert summary["records"] == len(records)

    assert summary["compliance"] == ratio(compliant, samples)
    assert summary["accuracy"] == ratio(count["equivalent"], samples)
    assert summary["unknown_rate"] == ratio(count["unknown"], samples)
    assert summary["accuracy_excluding_unknown"] == ratio(
        count["equivalent"], samples - count["unknown"]
    )
    assert summary["accuracy_all_records"] == ratio(count["equivalent"], len(records))
    for c in categories:
        assert c["compliance"] == ratio(c["compliant"], c["samples"])
        assert c["accuracy"] == ratio(c["equivalent"], c["samples"])

    decided_batches = []
    for name, row in summary["batches"].items():
        rows = batches[name]
        scored = [r for r in rows if not r.errored]
        assert row["records"] == len(rows)
        assert row["compliance"] == ratio(sum(r.compliant for r in scored), len(scored))
        assert row["accuracy"] == ratio(
            sum(r.verdict_status == "equivalent" for r in scored), len(scored)
        )
        assert row["unknown_rate"] == ratio(
            sum(r.verdict_status == "unknown" for r in scored), len(scored)
        )
        if scored:
            decided_batches.append(row)
    stats = summary["batch_stats"]
    assert stats["compliance"]["values"] == [row["compliance"] for row in decided_batches]
    assert stats["accuracy"]["values"] == [row["accuracy"] for row in decided_batches]

    if not judged:
        assert "judge" not in summary
        return
    j = summary["judge"]
    assert j["tp"] + j["fp"] + j["tn"] + j["fn"] == j["pairs"] == len(judged)
    assert j["unparseable"] == sum(r.answer == "unparseable" for r in judged)
    assert j["zero_denominator"] == sorted(j["zero_denominator"])
    expected = {
        "precision": (j["tp"], j["tp"] + j["fp"]),
        "sensitivity": (j["tp"], j["tp"] + j["fn"]),
        "specificity": (j["tn"], j["tn"] + j["fp"]),
        "f1": (2 * j["tp"], 2 * j["tp"] + j["fp"] + j["fn"]),
    }
    for name, (num, den) in expected.items():
        assert j[name] == (ratio(num, den) if den else 1.0)
        assert (name in j["zero_denominator"]) == (den == 0)
