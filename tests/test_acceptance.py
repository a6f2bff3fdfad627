"""End-to-end acceptance gate.

Eight checks, each printing one ACCEPTANCE line so a log scrape shows
the overall verdict at a glance. Numeric targets are frozen from hand
calculation or from independent brute-force oracles defined inline.
"""

from __future__ import annotations

import math
import time

import numpy as np

import test_properties
from fairaudit import (
    AuditDataset,
    BootstrapConfig,
    Comparison,
    FairnessCriterion,
    FairnessReport,
    MetaMetricKind,
    MetricId,
    RowStatus,
    UNDEFINED,
    Verdict,
    epsilon_assessment,
    group_metric,
    incompatibility_verdict,
    is_defined,
    make_comparison,
    meta,
)
from fairaudit.cli import AuditRequest, main, run_audit
from fairaudit.inference import bootstrap_intervals
from fairaudit.report import format_percent, format_plain, render_json


def _gate(number: int, slug: str, budget_s: float, body) -> None:
    start = time.perf_counter()
    ok = False
    try:
        body()
        elapsed = time.perf_counter() - start
        ok = elapsed < budget_s
        assert ok, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"
    finally:
        print(f"ACCEPTANCE {number} ({slug}): {'PASS' if ok else 'FAIL'}")


# (criterion, metric, value_a, value_b, printed diff, printed ratio);
# treatment equality renders plain, every other diff as a percentage
CASE_TABLE = [
    (FairnessCriterion.STATISTICAL_PARITY, MetricId.POSITIVE_RATE, 0.17, 0.08, "9%", "2.12"),
    (FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY, MetricId.POSITIVE_RATE, 0.34, 0.21, "13%", "1.62"),
    (FairnessCriterion.EQUAL_OPPORTUNITY, MetricId.FNR, 0.38, 0.62, "-24%", "0.61"),
    (FairnessCriterion.PREDICTIVE_EQUALITY, MetricId.FPR, 0.08, 0.03, "5%", "2.67"),
    (FairnessCriterion.BALANCE_POSITIVE, MetricId.MEAN_SCORE_POS, 0.46, 0.37, "9%", "1.24"),
    (FairnessCriterion.BALANCE_NEGATIVE, MetricId.MEAN_SCORE_NEG, 0.15, 0.10, "5%", "1.5"),
    (FairnessCriterion.PREDICTIVE_PARITY, MetricId.PPV, 0.62, 0.66, "-4%", "0.94"),
    (FairnessCriterion.BRIER_PARITY, MetricId.BRIER_SCORE, 0.09, 0.08, "1%", "1.12"),
    (FairnessCriterion.OVERALL_ACCURACY, MetricId.ACCURACY, 0.87, 0.88, "-1%", "0.99"),
    (FairnessCriterion.TREATMENT_EQUALITY, MetricId.FN_FP_RATIO, 5.11, 13.6, "-8.49", "0.38"),
]


def test_1_case_table_arithmetic():
    def body():
        for criterion, metric, value_a, value_b, want_diff, want_ratio in CASE_TABLE:
            condition = "age >= 60" if (
                criterion is FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY
            ) else None
            row = make_comparison(
                criterion, metric, "A", "B", value_a, value_b, condition=condition
            )
            if metric is MetricId.FN_FP_RATIO:
                got_diff = format_plain(row.diff)
            else:
                got_diff = format_percent(row.diff)
            assert got_diff == want_diff, (criterion, got_diff, want_diff)
            assert format_plain(row.ratio) == want_ratio, (criterion, want_ratio)

    _gate(1, "case-table-arithmetic", 1.0, body)


def _brute_force(metric: MetricId, y: list, d: list, s: list):
    n = len(y)
    tp = sum(1 for a, b in zip(y, d) if a == 1 and b == 1)
    fp = sum(1 for a, b in zip(y, d) if a == 0 and b == 1)
    fn = sum(1 for a, b in zip(y, d) if a == 1 and b == 0)
    tn = n - tp - fp - fn

    def frac(num, den):
        return num / den if den else UNDEFINED

    if metric is MetricId.TPR:
        return frac(tp, tp + fn)
    if metric is MetricId.TNR:
        return frac(tn, tn + fp)
    if metric is MetricId.FPR:
        return frac(fp, fp + tn)
    if metric is MetricId.FNR:
        return frac(fn, tp + fn)
    if metric is MetricId.PPV:
        return frac(tp, tp + fp)
    if metric is MetricId.NPV:
        return frac(tn, tn + fn)
    if metric is MetricId.ACCURACY:
        return frac(tp + tn, n)
    if metric is MetricId.FN_FP_RATIO:
        return frac(fn, fp)
    if metric is MetricId.POSITIVE_RATE:
        return frac(tp + fp, n)
    if metric is MetricId.PREVALENCE:
        return frac(tp + fn, n)
    if metric is MetricId.BRIER_SCORE:
        return math.fsum((si - yi) ** 2 for si, yi in zip(s, y)) / n
    if metric is MetricId.MEAN_ABSOLUTE_ERROR:
        return math.fsum(abs(si - yi) for si, yi in zip(s, y)) / n
    if metric is MetricId.MEAN_SCORE_POS:
        kept = [si for si, yi in zip(s, y) if yi == 1]
        return math.fsum(kept) / len(kept) if kept else UNDEFINED
    if metric is MetricId.MEAN_SCORE_NEG:
        kept = [si for si, yi in zip(s, y) if yi == 0]
        return math.fsum(kept) / len(kept) if kept else UNDEFINED
    raise AssertionError(metric)


def test_2_metric_oracle_equivalence():
    def body():
        rng = np.random.Generator(np.random.PCG64(20240202))
        for _ in range(200):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 51))
            codes = rng.integers(0, k, size=n)
            codes[:k] = np.arange(k)  # keep every group inhabited
            labels = np.array([f"g{c}" for c in codes], dtype=object)
            outcome = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int8)
            decision = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.int8)
            score = rng.random(n)
            ds = AuditDataset(
                outcome=outcome, group=labels, score=score, decision=decision
            )
            for label in ds.groups:
                rows = [i for i in range(n) if labels[i] == label]
                y = [int(outcome[i]) for i in rows]
                d = [int(decision[i]) for i in rows]
                s = [float(score[i]) for i in rows]
                for metric in MetricId:
                    actual = group_metric(ds, label, metric)
                    expected = _brute_force(metric, y, d, s)
                    if not is_defined(expected):
                        assert actual is UNDEFINED, (label, metric)
                    else:
                        assert is_defined(actual), (label, metric)
                        assert abs(actual - expected) <= 1e-12, (label, metric)

    _gate(2, "metric-oracle-equivalence", 5.0, body)


def test_3_bootstrap_determinism(clinical_csv, tmp_path):
    def body():
        request = AuditRequest(
            input=str(clinical_csv),
            outcome="died",
            group="sex",
            score="risk",
            threshold=0.5,
            conditions={"senior": "age >= 60"},
            bootstrap=1000,
            seed=42,
            format="json",
        )
        texts = [render_json(run_audit(request)) for _ in range(3)]
        assert texts[0] == texts[1] == texts[2]

        argv = [
            "audit", "--input", str(clinical_csv), "--outcome", "died",
            "--group", "sex", "--score", "risk", "--threshold", "0.5",
            "--condition", "senior=age >= 60", "--bootstrap", "1000",
            "--seed", "42", "--format", "json",
        ]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second), "--workers", "4"]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes().decode("utf-8") == texts[0]

    _gate(3, "bootstrap-determinism", 10.0, body)


def test_4_bootstrap_coverage():
    def body():
        rng = np.random.Generator(np.random.PCG64(20240816))
        sims = 1000
        n = 500
        labels = np.array(["a"] * n + ["b"] * n, dtype=object)
        diff_hits = ratio_hits = 0
        for sim in range(sims):
            decided_a = (rng.random(n) < 0.30).astype(np.int8)
            decided_b = (rng.random(n) < 0.20).astype(np.int8)
            decision = np.concatenate([decided_a, decided_b])
            ds = AuditDataset(
                outcome=decision.copy(), group=labels, decision=decision
            )
            config = BootstrapConfig(iterations=500, seed=sim)
            pair = bootstrap_intervals(
                ds, [MetricId.POSITIVE_RATE], "a", "b", config
            )
            intervals = pair[MetricId.POSITIVE_RATE]
            if intervals.diff.contains(0.10):
                diff_hits += 1
            if intervals.ratio.contains(1.5):
                ratio_hits += 1
        diff_coverage = diff_hits / sims
        ratio_coverage = ratio_hits / sims
        assert 0.92 <= diff_coverage <= 0.97, diff_coverage
        assert 0.92 <= ratio_coverage <= 0.97, ratio_coverage

    _gate(4, "bootstrap-coverage", 120.0, body)


def test_5_meta_metric_hand_values():
    def body():
        entropy = meta([0.2, 0.4], MetaMetricKind.GENERALIZED_ENTROPY, exponent=2.0)
        assert abs(entropy.value - 1.0 / 18.0) <= 1e-12
        spread = meta([0.5, 1.0], MetaMetricKind.MAX_MIN_RATIO)
        assert spread.value == 2.0
        for kind in MetaMetricKind:
            exponent = 2.0 if kind is MetaMetricKind.GENERALIZED_ENTROPY else None
            flat = meta([0.3, 0.3, 0.3], kind, exponent=exponent)
            expected = 1.0 if kind is MetaMetricKind.MAX_MIN_RATIO else 0.0
            assert flat.value == expected, kind

    _gate(5, "meta-metric-hand-values", 1.0, body)


def _labeled_blocks(pos_a: int, n_a: int, pos_b: int, n_b: int, flips: int) -> AuditDataset:
    """Two-group dataset with block outcomes and a flip-perturbed predictor.

    Flipping the first `flips` positives and negatives in each group keeps
    the per-group positive counts intact while making the predictor
    imperfect yet still informative.
    """
    outcome = np.concatenate(
        [
            np.ones(pos_a, dtype=np.int8), np.zeros(n_a - pos_a, dtype=np.int8),
            np.ones(pos_b, dtype=np.int8), np.zeros(n_b - pos_b, dtype=np.int8),
        ]
    )
    decision = outcome.copy()
    for offset, pos, size in ((0, pos_a, n_a), (n_a, pos_b, n_b)):
        decision[offset:offset + flips] ^= 1
        decision[offset + pos:offset + pos + flips] ^= 1
    labels = np.array(["a"] * n_a + ["b"] * n_b, dtype=object)
    return AuditDataset(outcome=outcome, group=labels, decision=decision)


def _pearson_statistic(table: list[list[int]]) -> float:
    total = sum(sum(row) for row in table)
    row_sums = [sum(row) for row in table]
    col_sums = [sum(col) for col in zip(*table)]
    statistic = 0.0
    for i, row in enumerate(table):
        for j, observed in enumerate(row):
            expected = row_sums[i] * col_sums[j] / total
            statistic += (observed - expected) ** 2 / expected
    return statistic


def test_6_incompatibility_gating():
    def body():
        balanced = incompatibility_verdict(_labeled_blocks(60, 400, 60, 400, flips=10))
        assert balanced.informative and balanced.imperfect
        assert balanced.flagged == ()

        skewed = incompatibility_verdict(_labeled_blocks(95, 500, 70, 500, flips=15))
        assert len(skewed.flagged) == 3
        # flips preserve per-group positive-decision counts
        oracle = _pearson_statistic([[95, 405], [70, 430]])
        assert abs(skewed.statistic - oracle) <= 1e-9
        assert abs(skewed.p_value - math.erfc(math.sqrt(oracle / 2.0))) <= 1e-12
        assert 0.03 < skewed.p_value < 0.04

    _gate(6, "incompatibility-gating", 1.0, body)


# printed diffs straight from the rendered table; rebuilding them by
# subtraction would shift the two 5% rows off the tolerance boundary
VERDICT_DIFFS = [
    (FairnessCriterion.STATISTICAL_PARITY, MetricId.POSITIVE_RATE, 0.09, None),
    (FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY, MetricId.POSITIVE_RATE, 0.13, "age >= 60"),
    (FairnessCriterion.EQUAL_OPPORTUNITY, MetricId.FNR, -0.24, None),
    (FairnessCriterion.PREDICTIVE_EQUALITY, MetricId.FPR, 0.05, None),
    (FairnessCriterion.BALANCE_POSITIVE, MetricId.MEAN_SCORE_POS, 0.09, None),
    (FairnessCriterion.BALANCE_NEGATIVE, MetricId.MEAN_SCORE_NEG, 0.05, None),
    (FairnessCriterion.PREDICTIVE_PARITY, MetricId.PPV, -0.04, None),
    (FairnessCriterion.BRIER_PARITY, MetricId.BRIER_SCORE, 0.01, None),
    (FairnessCriterion.OVERALL_ACCURACY, MetricId.ACCURACY, -0.01, None),
    (FairnessCriterion.TREATMENT_EQUALITY, MetricId.FN_FP_RATIO, -8.49, None),
]


def test_7_epsilon_assessment():
    def body():
        rows = tuple(
            Comparison(
                criterion=criterion,
                metric=metric,
                group_a="A",
                group_b="B",
                value_a=0.0,
                value_b=0.0,
                diff=diff,
                ratio=UNDEFINED,
                condition=condition,
                status=RowStatus.EVALUATED,
            )
            for criterion, metric, diff, condition in VERDICT_DIFFS
        )
        report = FairnessReport(group_a="A", group_b="B", rows=rows)
        verdicts = epsilon_assessment(report, 0.05).verdicts
        passed = {key for key, v in verdicts.items() if v is Verdict.PASS}
        failed = {key for key, v in verdicts.items() if v is Verdict.FAIL}
        assert passed == {"predictive_parity", "brier_parity", "overall_accuracy"}
        assert failed == {
            "statistical_parity",
            "conditional_statistical_parity[age >= 60]",
            "equal_opportunity",
            "predictive_equality",
            "balance_positive",
            "balance_negative",
            "treatment_equality",
        }

    _gate(7, "epsilon-assessment", 1.0, body)


def test_8_property_suites():
    def body():
        assert sum(test_properties.EXAMPLE_BUDGETS.values()) >= 1000
        for name in test_properties.EXAMPLE_BUDGETS:
            getattr(test_properties, name)()

    _gate(8, "property-suites", 120.0, body)
