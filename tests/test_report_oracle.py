"""Whole-report oracle: an audit's JSON report against a brute-force count.

Small random CSVs go through ``fairaudit audit --format json --meta`` with
one condition, and every row value, difference, ratio, row status and
meta-metric entry is recomputed from the generated columns with plain
Python counting. Scores are multiples of 1/8, so every sum is exact and
each value must match to the last bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit.cli import main

# Each criterion the audit runs, in report row order, with the metrics it
# compares; the two calibration criteria are left out.
CRITERIA = {
    "statistical_parity": ("positive_rate",),
    "conditional_statistical_parity": ("positive_rate",),
    "equal_opportunity": ("fnr",),
    "predictive_equality": ("fpr",),
    "equalized_odds": ("fnr", "fpr"),
    "balance_positive": ("mean_score_pos",),
    "balance_negative": ("mean_score_neg",),
    "predictive_parity": ("ppv",),
    "conditional_use_accuracy": ("ppv", "npv"),
    "brier_parity": ("brier_score",),
    "overall_accuracy": ("accuracy",),
    "treatment_equality": ("fn_fp_ratio",),
}
SCORE_METRICS = {"mean_score_pos", "mean_score_neg", "brier_score"}
KINDS = (
    "max_min_diff", "max_min_ratio", "max_abs_diff", "mean_abs_dev", "variance",
    "generalized_entropy",
)
POSITIVE_ONLY = {"max_min_ratio", "generalized_entropy"}
UNDEFINED = "UNDEFINED"


@st.composite
def audits(draw):
    """Columns of a CSV with every group present, and a condition cut."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(5, 60))
    labels = "abcde"[:k]
    group = list(labels) + draw(st.lists(st.sampled_from(labels), min_size=n - k, max_size=n - k))
    outcome = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    decision = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    eighths = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    blank = draw(st.sets(st.integers(0, n - 1), max_size=3)) if draw(st.booleans()) else set()
    score = [None if i in blank else e / 8 for i, e in enumerate(eighths)]
    x = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    cut = draw(st.integers(0, 10))  # 10 matches no record
    return list(zip(outcome, group, decision, score, x)), cut


def brute_force(records) -> dict:
    """Every compared metric of these (y, group, d, s, x) records; None on a zero denominator."""
    tp = sum(1 for y, _, d, _, _ in records if y == 1 and d == 1)
    fp = sum(1 for y, _, d, _, _ in records if y == 0 and d == 1)
    fn = sum(1 for y, _, d, _, _ in records if y == 1 and d == 0)
    tn = len(records) - tp - fp - fn
    positive = [s for y, _, _, s, _ in records if y == 1]
    negative = [s for y, _, _, s, _ in records if y == 0]

    def frac(num, den):
        return num / den if den else None

    values = {
        "positive_rate": frac(tp + fp, len(records)),
        "fnr": frac(fn, tp + fn),
        "fpr": frac(fp, fp + tn),
        "ppv": frac(tp, tp + fp),
        "npv": frac(tn, tn + fn),
        "accuracy": frac(tp + tn, len(records)),
        "fn_fp_ratio": frac(fn, fp),
    }
    if all(s is not None for _, _, _, s, _ in records):
        values["mean_score_pos"] = frac(sum(positive), len(positive))
        values["mean_score_neg"] = frac(sum(negative), len(negative))
        values["brier_score"] = frac(sum((s - y) ** 2 for y, _, _, s, _ in records), len(records))
    return values


def run(records, cut) -> dict:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "audit.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("y,g,d,s,x\n")
            for y, g, d, s, x in records:
                handle.write(f"{y},{g},{d},{'' if s is None else s},{x}\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                [
                    "audit", "--input", path, "--outcome", "y", "--group", "g",
                    "--decision", "d", "--score", "s", "--format", "json", "--meta",
                    "--criteria", ",".join(CRITERIA), "--condition", f"c=x >= {cut}",
                ]
            )
    assert code == 0
    return json.loads(out.getvalue())


@settings(max_examples=60)
@given(audits())
def test_report_matches_brute_force(audit):
    records, cut = audit
    report = run(records, cut)
    labels = sorted({g for _, g, _, _, _ in records})
    by_group = {label: [r for r in records if r[1] == label] for label in labels}
    whole = {label: brute_force(rows) for label, rows in by_group.items()}
    scored = all(s is not None for _, _, _, s, _ in records)
    assert report["dataset"]["groups"] == {label: len(by_group[label]) for label in labels}

    kept = [r for r in records if r[4] >= cut]
    emptied = [label for label in labels if not any(r[1] == label for r in kept)]
    condition = f"condition 'x >= {cut}'"
    if not kept:
        stratum_error = f"{condition} matches no records"
    elif emptied:
        stratum_error = f"{condition} leaves group {emptied[0]!r} empty"
    else:
        stratum_error = None
        stratum = {label: brute_force([r for r in kept if r[1] == label]) for label in labels}

    reference, others = labels[0], labels[1:]
    assert [(p["group_a"], p["group_b"]) for p in report["fairness"]] == [
        (reference, other) for other in others
    ]
    planned = [
        (criterion, metric, "c" if criterion == "conditional_statistical_parity" else None)
        for criterion, metrics in CRITERIA.items()
        for metric in metrics
    ]
    for pair in report["fairness"]:
        a, b, rows = pair["group_a"], pair["group_b"], pair["rows"]
        assert [(r["criterion"], r["metric"], r["condition"]) for r in rows] == planned
        for row in rows:
            metric, conditional = row["metric"], row["condition"] is not None
            if conditional and stratum_error is not None:
                assert (row["status"], row["notes"]) == ("error", [stratum_error])
                continue
            if metric in SCORE_METRICS and not scored:
                assert row["status"] == "not_evaluated"
                continue
            values = stratum if conditional else whole
            value_a, value_b = values[a][metric], values[b][metric]
            assert row["status"] == "evaluated"
            assert row["value_a"] == (UNDEFINED if value_a is None else value_a)
            assert row["value_b"] == (UNDEFINED if value_b is None else value_b)
            if value_a is None or value_b is None:
                assert row["diff"] == row["ratio"] == UNDEFINED
                continue
            assert row["diff"] == value_a - value_b
            assert row["ratio"] == (UNDEFINED if value_b == 0 else value_a / value_b)

    metrics = dict.fromkeys(
        metric
        for metrics in CRITERIA.values()
        for metric in metrics
        if scored or metric not in SCORE_METRICS
    )
    entries = report["meta_metrics"]
    assert [(e["metric"], e["kind"]) for e in entries] == [(m, k) for m in metrics for k in KINDS]
    for entry in entries:
        values = [whole[label][entry["metric"]] for label in labels]
        undefined = [repr(label) for label, value in zip(labels, values) if value is None]
        if undefined:
            assert entry["note"] == f"undefined for group(s) {', '.join(undefined)}"
        elif entry["kind"] in POSITIVE_ONLY and min(values) <= 0:
            assert entry["note"] == f"{entry['kind']} needs strictly positive group values"
        else:
            assert entry["groups"] == labels
            assert entry["group_values"] == values
