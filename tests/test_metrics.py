"""Per-group metrics against hand-computed values."""

from __future__ import annotations

import numpy as np
import pytest

from fairaudit import (
    AuditDataset,
    ConfusionCounts,
    InputError,
    MetricId,
    UNDEFINED,
    calibration_curve,
    group_confusion,
    group_metric,
    group_metrics,
    is_defined,
)

F_SCORES = [0.9, 0.3, 0.8, 0.6, 0.2, 0.1, 0.4, 0.45]
F_OUTCOMES = [1, 1, 1, 0, 0, 0, 0, 1]


class TestConfusionCounts:
    def test_toy_counts(self, toy):
        assert group_confusion(toy, "F") == ConfusionCounts(tp=2, fp=1, tn=3, fn=2)
        assert group_confusion(toy, "M") == ConfusionCounts(tp=1, fp=1, tn=1, fn=1)


class TestGroupMetric:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            (MetricId.TPR, 2 / 4),
            (MetricId.TNR, 3 / 4),
            (MetricId.FPR, 1 / 4),
            (MetricId.FNR, 2 / 4),
            (MetricId.PPV, 2 / 3),
            (MetricId.NPV, 3 / 5),
            (MetricId.ACCURACY, 5 / 8),
            (MetricId.POSITIVE_RATE, 3 / 8),
            (MetricId.PREVALENCE, 4 / 8),
            (MetricId.FN_FP_RATIO, 2.0),
        ],
    )
    def test_count_metrics_exact(self, toy, metric, expected):
        assert group_metric(toy, "F", metric) == expected

    def test_score_metrics(self, toy):
        pos = [s for s, y in zip(F_SCORES, F_OUTCOMES) if y == 1]
        neg = [s for s, y in zip(F_SCORES, F_OUTCOMES) if y == 0]
        assert group_metric(toy, "F", MetricId.MEAN_SCORE_POS) == pytest.approx(
            sum(pos) / len(pos), rel=1e-12
        )
        assert group_metric(toy, "F", MetricId.MEAN_SCORE_NEG) == pytest.approx(
            sum(neg) / len(neg), rel=1e-12
        )
        bs = sum((s - y) ** 2 for s, y in zip(F_SCORES, F_OUTCOMES)) / 8
        mae = sum(abs(s - y) for s, y in zip(F_SCORES, F_OUTCOMES)) / 8
        assert group_metric(toy, "F", MetricId.BRIER_SCORE) == pytest.approx(bs, rel=1e-12)
        assert group_metric(toy, "F", MetricId.MEAN_ABSOLUTE_ERROR) == pytest.approx(
            mae, rel=1e-12
        )

    def test_metric_by_name(self, toy):
        assert group_metric(toy, "M", "tpr") == 0.5

    def test_unknown_metric(self, toy):
        with pytest.raises(InputError, match="unknown metric"):
            group_metric(toy, "F", "lift")

    def test_unknown_group(self, toy):
        with pytest.raises(InputError, match="unknown group"):
            group_metric(toy, "X", MetricId.TPR)


class TestUndefined:
    def all_positive_outcomes(self):
        return AuditDataset(
            outcome=np.array([1, 1, 1, 0]),
            group=np.array(["a", "a", "a", "b"], dtype=object),
            score=np.array([0.9, 0.8, 0.7, 0.1]),
            decision=np.array([1, 0, 1, 0]),
        )

    def test_zero_denominators(self):
        ds = self.all_positive_outcomes()
        assert group_metric(ds, "a", MetricId.FPR) is UNDEFINED
        assert group_metric(ds, "a", MetricId.TNR) is UNDEFINED
        assert group_metric(ds, "a", MetricId.MEAN_SCORE_NEG) is UNDEFINED
        assert group_metric(ds, "a", MetricId.FN_FP_RATIO) is UNDEFINED

    def test_no_positive_decisions(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 0]),
            group=np.array(["a", "a", "b", "b"], dtype=object),
            score=np.array([0.9, 0.1, 0.8, 0.2]),
            decision=np.array([0, 0, 1, 1]),
        )
        assert group_metric(ds, "a", MetricId.PPV) is UNDEFINED
        assert group_metric(ds, "b", MetricId.NPV) is UNDEFINED

    def test_undefined_is_falsy_singleton(self):
        assert not UNDEFINED
        assert repr(UNDEFINED) == "UNDEFINED"
        assert not is_defined(UNDEFINED)
        assert is_defined(0.0)


class TestCapabilityErrors:
    def test_score_metric_without_scores(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            decision=np.array([1, 0]),
        )
        with pytest.raises(InputError, match="risk scores"):
            group_metric(ds, "a", MetricId.BRIER_SCORE)

    def test_decision_metric_without_decisions(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.9, 0.1]),
        )
        with pytest.raises(InputError, match="needs decisions"):
            group_metric(ds, "a", MetricId.TPR)

    def test_group_metrics_reports_what_it_can(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.9, 0.1]),
        )
        summary = group_metrics(ds, "a")
        assert summary.n == 1
        assert MetricId.BRIER_SCORE in summary.values
        assert MetricId.PREVALENCE in summary.values
        assert MetricId.TPR not in summary.values


class TestCalibrationCurve:
    def make(self):
        scores = [0.0, 0.05, 0.1, 0.35, 0.95, 1.0, 0.5, 0.9]
        outcomes = [0, 0, 1, 0, 1, 1, 0, 1]
        return AuditDataset(
            outcome=np.array(outcomes),
            group=np.array(["a"] * 6 + ["b"] * 2, dtype=object),
            score=np.array(scores),
        )

    def test_bin_assignment(self):
        curve = calibration_curve(self.make(), "a", bins=10, min_bin_count=2)
        assert list(curve.counts) == [3, 0, 0, 1, 0, 0, 0, 0, 0, 2]
        assert curve.n == 6
        assert curve.bins == 10

    def test_bin_statistics(self):
        curve = calibration_curve(self.make(), "a", bins=10, min_bin_count=2)
        assert curve.observed_rate[0] == pytest.approx(1 / 3, rel=1e-12)
        assert curve.mean_score[0] == pytest.approx(0.05, rel=1e-12)
        assert curve.observed_rate[9] == 1.0
        assert np.isnan(curve.observed_rate[1])

    def test_sparse_flags(self):
        curve = calibration_curve(self.make(), "a", bins=10, min_bin_count=2)
        assert not curve.sparse[0]
        assert not curve.sparse[9]
        assert curve.sparse[3]

    def test_interior_edge_goes_to_lower_bin(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1]),
            group=np.array(["a", "a", "b"], dtype=object),
            score=np.array([0.2, 0.5, 0.7]),
        )
        curve = calibration_curve(ds, "a", bins=10, min_bin_count=1)
        assert curve.counts[1] == 1  # 0.2 in (0.1, 0.2]
        assert curve.counts[4] == 1  # 0.5 in (0.4, 0.5]

    def test_counts_partition_group(self, toy):
        curve = calibration_curve(toy, "F", bins=7)
        assert curve.n == 8

    def test_needs_at_least_two_bins(self, toy):
        with pytest.raises(InputError, match="at least 2"):
            calibration_curve(toy, "F", bins=1)

    def test_needs_scores(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            decision=np.array([1, 0]),
        )
        with pytest.raises(InputError, match="risk scores"):
            calibration_curve(ds, "a")
