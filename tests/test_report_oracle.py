"""Whole-report oracle: an audit's JSON report against a brute-force count.

Small random CSVs go through ``fairaudit audit --format json --meta`` with
one condition and two tolerances, and every row value, difference, ratio,
row status, meta-metric entry, tolerance verdict and diagnostics field is
recomputed from the generated columns with plain Python counting. A
second audit of the same CSV asks for the two calibration criteria, with
2, 4 or 8 bins, and each pair's calibration block (or the note or exit-2
message that stands for it) is rebuilt the same way. Scores are multiples
of 1/8, so every sum and bin edge is exact and each value must match to
the last bit; only the chi-square statistic and its p-value, which take a
sum of quotients and scipy's tail, are compared to a relative tolerance.
A third audit asks for bootstrap intervals, and each interval (or its
skip note, or the exit-2 message of the first interval that discards a
resample) is rebuilt as a Wald interval over the reference resampler's
resamples, each counted in plain Python; its bounds, which take a
standard deviation, are compared to a relative tolerance.
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
from statistics import NormalDist, stdev

from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from fairaudit import AuditDataset
from fairaudit.cli import main

from reference import resample_within_groups

# Each criterion the audit runs, in report row order, with the metrics it
# compares; the two calibration criteria have a run of their own.
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


def audit(records, *flags) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of a JSON audit of these records."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "audit.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("y,g,d,s,x\n")
            for y, g, d, s, x in records:
                handle.write(f"{y},{g},{d},{'' if s is None else s},{x}\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(
                [
                    "audit", "--input", path, "--outcome", "y", "--group", "g",
                    "--decision", "d", "--score", "s", "--format", "json", *flags,
                ]
            )
    return code, out.getvalue(), err.getvalue()


def run(records, cut) -> dict:
    code, out, _ = audit(
        records, "--meta", "--criteria", ",".join(CRITERIA), "--condition", f"c=x >= {cut}",
        *(arg for eps in EPSILONS for arg in ("--epsilon", str(eps))),
    )
    assert code == 0
    return json.loads(out)


def curve(records, bins, min_bin_count) -> dict:
    """One group's calibration curve block, binned by plain counting."""
    members = [[] for _ in range(bins)]
    for y, _, _, s, _ in records:
        # a score on an interior edge lands in the lower bin, and 0 in the first
        members[max(math.ceil(Fraction(s) * bins) - 1, 0)].append((y, s))
    return {
        "counts": [len(m) for m in members],
        "mean_score": [sum(s for _, s in m) / len(m) if m else UNDEFINED for m in members],
        "observed_rate": [sum(y for y, _ in m) / len(m) if m else UNDEFINED for m in members],
        "sparse": [len(m) < min_bin_count for m in members],
    }


def calibration(curves, a, b, bins, min_bin_count) -> dict | str:
    """The calibration block of pair (a, b), or the reason it forms none."""
    within = {}
    for label in (a, b):
        c = curves[label]
        gaps = [
            abs(rate - mean)
            for rate, mean, sparse in zip(c["observed_rate"], c["mean_score"], c["sparse"])
            if not sparse
        ]
        if not gaps:
            return f"group {label!r} has no score bin with at least {min_bin_count} records"
        within[label] = max(gaps)
    shared = [
        abs(rate_a - rate_b)
        for rate_a, rate_b, sparse_a, sparse_b in zip(
            curves[a]["observed_rate"], curves[b]["observed_rate"],
            curves[a]["sparse"], curves[b]["sparse"],
        )
        if not (sparse_a or sparse_b)
    ]
    if not shared:
        return "no score bin is populated in both groups; use fewer bins or a lower min_bin_count"
    return {
        "bins": bins,
        "edges": [i / bins for i in range(bins + 1)],
        "curves": {a: curves[a], b: curves[b]},
        "within_gap": within,
        "between_gap": max(shared),
    }


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


# Eighths put every bin edge of 2, 4 or 8 bins exactly on a score.
@settings(max_examples=100)
@given(audits(), st.sampled_from([2, 4, 8]), st.integers(1, 4))
def test_calibration_matches_brute_force(audit_case, bins, min_bin_count):
    records, _ = audit_case
    code, out, err = audit(
        records, "--criteria", "well_calibration,test_fairness",
        "--bins", str(bins), "--min-bin-count", str(min_bin_count),
    )
    labels = sorted({g for _, g, _, _, _ in records})
    reference, others = labels[0], labels[1:]
    if any(s is None for _, _, _, s, _ in records):
        expected = dict.fromkeys(others, "risk scores missing for some records")
    else:
        curves = {
            label: curve([r for r in records if r[1] == label], bins, min_bin_count)
            for label in labels
        }
        expected = {
            other: calibration(curves, reference, other, bins, min_bin_count) for other in others
        }
        if all(isinstance(block, str) for block in expected.values()):
            # scores are loaded, yet no pair forms a comparison: the first pair's reason ends the run
            assert (code, out, err) == (2, "", f"fairaudit: {expected[others[0]]}\n")
            return
    assert (code, err) == (0, "")
    pairs = json.loads(out)["fairness"]
    assert [(p["group_a"], p["group_b"]) for p in pairs] == [(reference, o) for o in others]
    for pair, block in zip(pairs, expected.values()):
        if isinstance(block, str):
            assert (pair["calibration"], pair["notes"]) == (
                None, [f"calibration criteria skipped: {block}"]
            )
        else:
            assert (pair["calibration"], pair["notes"]) == (block, [])


# The CLI's discard tolerance is 0.01, so at B = 40 an interval that
# discards one resample ends the audit, and a formed one discards none.
ITERATIONS = 40
Z = NormalDist().inv_cdf(1 - 0.05 / 2)
# Every criterion, or a few whose metrics are defined on every resample,
# though a resample may still give a ratio a zero
BOOTSTRAP_CRITERIA = (
    ",".join(CRITERIA),
    "statistical_parity,conditional_statistical_parity,overall_accuracy,brier_parity",
)
# Few random examples form a conditional row's ratio; these records, cut at
# x >= 5, form every interval of the second set
FORMED = [
    (i % 2, "ab"[i % 2 if i < 4 else i // 3 % 2], int(i % 5 > 0), (3 + i % 3) / 8, i % 10)
    for i in range(48)
]


def replicates(records, seed) -> list[dict]:
    """Each group's metrics on each of the reference resampler's resamples."""
    y, g, d, s, _ = zip(*records)
    dataset = AuditDataset(
        outcome=list(y),
        group=list(g),
        decision=list(d),
        score=[math.nan if v is None else v for v in s],
    )
    out = []
    for iteration in range(ITERATIONS):
        drawn = resample_within_groups(dataset, seed, iteration)
        columns = (drawn.outcome.tolist(), drawn.group.tolist(), drawn.decision.tolist())
        scores = [None if math.isnan(v) else v for v in drawn.score.tolist()]
        rows = [(y, g, d, s, 0) for (y, g, d), s in zip(zip(*columns), scores)]
        out.append({label: brute_force([r for r in rows if r[1] == label]) for label in set(g)})
    return out


def wald(point_a, point_b, pairs, log) -> list[float] | str | ValueError:
    """The interval's bounds, the reason it is skipped, or the discard that ends the audit."""
    if point_a is None or point_b is None:
        return "point estimate undefined"
    if log and (point_a <= 0 or point_b <= 0):
        return "needs strictly positive values"
    kept = [(a, b) for a, b in pairs if a is not None and b is not None and (not log or a > 0 < b)]
    if len(kept) < ITERATIONS:
        what = "ratio" if log else "difference"
        discarded = ITERATIONS - len(kept)
        return ValueError(
            f"bootstrap discarded {discarded} of {ITERATIONS} iterations for the {what}; "
            "tolerance is 0.01"
        )
    scale = math.log if log else float
    center = scale(point_a) - scale(point_b)
    margin = Z * stdev(scale(a) - scale(b) for a, b in kept)
    bounds = [center - margin, center + margin]
    return [math.exp(bound) for bound in bounds] if log else bounds


@settings(max_examples=15)
@example((FORMED, 5), BOOTSTRAP_CRITERIA[1], 0)
@given(audits(), st.sampled_from(BOOTSTRAP_CRITERIA), st.integers(0, 2**16))
def test_intervals_match_a_wald_oracle(audit_case, criteria, seed):
    records, cut = audit_case
    code, out, err = audit(
        records, "--criteria", criteria, "--condition", f"c=x >= {cut}",
        "--bootstrap", str(ITERATIONS), "--seed", str(seed),
    )
    labels = sorted({g for _, g, _, _, _ in records})
    scored = all(s is not None for _, _, _, s, _ in records)
    kept = [r for r in records if r[4] >= cut]
    strata = {None: records}
    if {g for _, g, _, _, _ in kept} == set(labels):  # the condition forms its stratum
        strata["c"] = kept
    selected = criteria.split(",")
    planned = {
        name: {
            metric
            for criterion in selected
            if (criterion == "conditional_statistical_parity") == (name is not None)
            for metric in CRITERIA[criterion]
            if scored or metric not in SCORE_METRICS
        }
        for name in strata
    }
    draws = {name: replicates(rows, seed) for name, rows in strata.items() if planned[name]}
    # the audit bootstraps pair by pair, the whole dataset first, each
    # stratum's metrics in name order, and the difference before the ratio;
    # the first discard ends it
    expected, failure = {}, None
    for other in labels[1:]:
        pair = (labels[0], other)
        for name, rows in strata.items():
            groups = {label: [r for r in rows if r[1] == label] for label in pair}
            points = {label: brute_force(part) for label, part in groups.items()}
            for metric in sorted(planned[name]):
                point_a, point_b = (points[label][metric] for label in pair)
                values = [(rep[pair[0]][metric], rep[pair[1]][metric]) for rep in draws[name]]
                diff = wald(point_a, point_b, values, log=False)
                ratio = wald(point_a, point_b, values, log=True) if isinstance(diff, list) else None
                expected[pair, name, metric] = diff, ratio
                broken = next((r for r in (diff, ratio) if isinstance(r, ValueError)), None)
                if broken is not None and failure is None:
                    prefix = f"condition {name!r}, " if name else ""
                    failure = f"{prefix}{metric}, {pair[0]!r} vs {pair[1]!r}: {broken}"
    if failure is not None:
        assert (code, out, err) == (2, "", f"fairaudit: {failure}\n")
        return
    assert (code, err) == (0, "")
    for pair in json.loads(out)["fairness"]:
        for row in pair["rows"]:
            key = (pair["group_a"], pair["group_b"]), row["condition"], row["metric"]
            if key not in expected:  # an error or not-evaluated row
                assert row["ci_diff"] is row["ci_ratio"] is None
                continue
            diff, ratio = expected[key]
            skipped = (
                [f"intervals skipped: {diff}"] if isinstance(diff, str)
                else [f"ratio interval skipped: {ratio}"] if isinstance(ratio, str)
                else []
            )
            assert [note for note in row["notes"] if "skipped" in note] == skipped
            blocks = ((row["ci_diff"], diff, "wald_diff"), (row["ci_ratio"], ratio, "wald_log_ratio"))
            for block, bounds, method in blocks:
                if not isinstance(bounds, list):
                    assert block is None
                    continue
                assert (block["method"], block["discarded"]) == (method, 0)
                assert math.isclose(block["lower"], bounds[0], rel_tol=1e-9)
                assert math.isclose(block["upper"], bounds[1], rel_tol=1e-9)
