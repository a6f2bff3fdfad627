"""Whole-report oracle: an audit's JSON report against a brute-force count.

Small random CSVs go through ``fairaudit audit --format json --meta`` with
one condition and two tolerances, and every row value, difference, ratio,
row status, meta-metric entry, tolerance verdict and diagnostics field is
recomputed from the generated columns with plain Python counting. Scores
are multiples of 1/8, so every sum is exact and each value must match to
the last bit; only the chi-square statistic and its p-value, which take a
sum of quotients and scipy's tail, are compared to a relative tolerance.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

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
# 0.25 is a difference that eighths can reach exactly, so a row may sit on
# the tolerance, where |diff| < epsilon fails
EPSILONS = (0.05, 0.25)
# The incompatible criterion pairs in report order; the audit tests at 0.05.
PAIRS = ("independence_sufficiency", "independence_separation", "separation_sufficiency")
LEVEL = 0.05


@st.composite
def audits(draw):
    """Columns of a CSV with every group present, and a condition cut."""
    k = draw(st.integers(2, 5))
    n = draw(st.integers(5, 60))
    labels = "abcde"[:k]
    group = list(labels) + draw(st.lists(st.sampled_from(labels), min_size=n - k, max_size=n - k))
    outcome = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if draw(st.booleans()):  # every record of group a positive, so outcome rates differ
        outcome = [1 if g == "a" else y for g, y in zip(group, outcome)]
    # random decisions; a perfect predictor, or one wrong on a single record;
    # or a constant predictor, which is not informative
    predictor = draw(st.sampled_from(["random", "random", "perfect", "one_wrong", "constant"]))
    if predictor == "random":
        decision = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    elif predictor == "constant":
        decision = [draw(st.integers(0, 1))] * n
    else:
        decision = list(outcome)
        if predictor == "one_wrong":
            decision[0] = 1 - decision[0]
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
                    *(arg for eps in EPSILONS for arg in ("--epsilon", str(eps))),
                ]
            )
    assert code == 0
    return json.loads(out.getvalue())


def expected_verdicts(rows, epsilon) -> dict:
    """Each criterion's verdict from its rows: PASS when every row is evaluated
    with a defined |diff| < epsilon, UNDEFINED when any row is not evaluated or
    has no diff, FAIL otherwise."""
    keyed: dict[str, list] = {}
    for row in rows:
        key = row["criterion"] + (f"[{row['condition']}]" if row["condition"] else "")
        keyed.setdefault(key, []).append(row)
    verdicts = {}
    for key, group in keyed.items():
        if any(r["status"] != "evaluated" or r["diff"] == UNDEFINED for r in group):
            verdicts[key] = "UNDEFINED"
        else:
            verdicts[key] = "PASS" if all(abs(r["diff"]) < epsilon for r in group) else "FAIL"
    return verdicts


def check_diagnostics(diagnostics, records, labels) -> None:
    """The outcome/group chi-square test and the flags built on it."""
    positives = [sum(y for y, g, _, _, _ in records if g == label) for label in labels]
    sizes = [sum(1 for r in records if r[1] == label) for label in labels]
    n, total = len(records), sum(positives)
    if total in (0, n):
        assert diagnostics == {"error": "independence test needs both outcome values present"}
        return
    observed = [(pos, size - pos) for pos, size in zip(positives, sizes)]
    expected = [(size * total / n, size * (n - total) / n) for size in sizes]
    statistic = sum(
        (o - e) ** 2 / e for obs, exp in zip(observed, expected) for o, e in zip(obs, exp)
    )
    p_value = float(chi2.sf(statistic, len(labels) - 1))
    assert diagnostics["prevalence"] == {
        label: pos / size for label, pos, size in zip(labels, positives, sizes)
    }
    assert list(diagnostics["prevalence"]) == labels
    assert math.isclose(diagnostics["statistic"], statistic, rel_tol=1e-12)
    assert math.isclose(diagnostics["p_value"], p_value, rel_tol=1e-9)
    assert diagnostics["level"] == LEVEL

    tp = sum(1 for y, _, d, _, _ in records if y == 1 and d == 1)
    fp = sum(1 for y, _, d, _, _ in records if y == 0 and d == 1)
    reject = p_value < LEVEL
    informative = Fraction(tp, total) != Fraction(fp, n - total)  # pooled TPR != FPR
    imperfect = any(y != d for y, _, d, _, _ in records)
    assert diagnostics["reject_independence"] is reject
    assert diagnostics["informative"] is informative
    assert diagnostics["imperfect"] is imperfect
    flags = (reject, reject and informative, reject and imperfect)
    assert diagnostics["flagged"] == [pair for pair, flag in zip(PAIRS, flags) if flag]
    smallest = min(min(exp) for exp in expected)
    assert diagnostics["notes"] == (
        [
            "chi-square approximation is unreliable: the smallest expected cell "
            f"count is {smallest:.3g}, below 5"
        ]
        if smallest < 5
        else []
    )


@settings(max_examples=100)
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

    # rows are checked against brute force above, so each verdict is judged from them
    assessments = report["epsilon_assessments"]
    cases = list(product(EPSILONS, report["fairness"]))
    assert len(assessments) == len(cases)
    for assessment, (epsilon, pair) in zip(assessments, cases):
        assert assessment["epsilon"] == epsilon
        assert (assessment["group_a"], assessment["group_b"]) == (pair["group_a"], pair["group_b"])
        assert assessment["verdicts"] == expected_verdicts(pair["rows"], epsilon)
    check_diagnostics(report["diagnostics"], records, labels)
