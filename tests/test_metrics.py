"""Per-group metrics against hand-computed values."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    AuditDataset,
    BootstrapConfig,
    InputError,
    MetaMetricKind,
    MetricId,
    RowStatus,
    UNDEFINED,
    calibration_curve,
    evaluate_all,
    filter_condition,
    group_metric,
    incompatibility_verdict,
    independence_test,
    is_defined,
)
from fairaudit import metrics
from fairaudit.cli import _meta_for_metrics
from fairaudit.cli import main as cli_main
from fairaudit.inference import _group_replicates
from fairaudit.metrics import _cells

from conftest import toy_dataset
from reference import resample_within_groups

F_SCORES = [0.9, 0.3, 0.8, 0.6, 0.2, 0.1, 0.4, 0.45]
F_OUTCOMES = [1, 1, 1, 0, 0, 0, 0, 1]


class TestConfusionCounts:
    """A group's cell sizes, in cell order (TN, FP, FN, TP)."""

    def test_toy_counts(self, toy):
        assert _cells(toy, "F").sizes.tolist() == [3, 1, 2, 2]
        assert _cells(toy, "M").sizes.tolist() == [1, 1, 1, 1]

    def test_n_is_the_group_size(self, toy):
        assert _cells(toy, "F").sizes.sum() == 8
        assert _cells(toy, "M").sizes.sum() == 4


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
        with pytest.raises(InputError) as caught:
            group_metric(ds, "a", MetricId.BRIER_SCORE)
        assert str(caught.value) == "risk scores not loaded"

    def test_decision_metric_without_decisions(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.9, 0.1]),
        )
        with pytest.raises(InputError) as caught:
            group_metric(ds, "a", MetricId.TPR)
        assert str(caught.value) == "no decisions: bind a decision column or apply a threshold"

    def test_a_group_with_unset_scores_keeps_its_decision_metrics(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 0, 1]),
            group=np.array(["a", "a", "a", "b", "b"], dtype=object),
            score=np.array([0.9, np.nan, 0.4, 0.2, 0.7]),
            decision=np.array([1, 0, 1, 0, 1]),
        )
        assert group_metric(ds, "a", MetricId.TPR) == 1.0
        assert group_metric(ds, "a", MetricId.FPR) == 0.0
        assert group_metric(ds, "a", MetricId.FN_FP_RATIO) is UNDEFINED
        with pytest.raises(InputError, match="records without scores"):
            group_metric(ds, "a", MetricId.BRIER_SCORE)
        brier = group_metric(ds, "b", MetricId.BRIER_SCORE)
        assert brier == pytest.approx((0.2**2 + 0.3**2) / 2, rel=1e-12)


class TestPointSumMemo:
    def test_cells_are_built_once_per_group(self, toy, monkeypatch):
        builds = []
        cells_type = metrics._Cells
        monkeypatch.setattr(
            metrics, "_Cells", lambda *fields: builds.append(1) or cells_type(*fields)
        )
        config = BootstrapConfig(iterations=5, seed=3)
        for _ in range(2):
            values = {m: group_metric(toy, "F", m) for m in (MetricId.TPR, MetricId.BRIER_SCORE)}
            summary = {m: group_metric(toy, "M", m) for m in MetricId}
            replicates = [
                _group_replicates(toy, label, (MetricId.ACCURACY,), config) for label in "FM"
            ]
            for label in "MF":
                _group_replicates(toy, label, (MetricId.BRIER_SCORE,), config)
            resampled = resample_within_groups(toy, seed=3, iteration=2)
            test = independence_test(toy)
        assert len(builds) == len(toy.groups)
        assert sorted(key for key in toy._memo if key[0] == "cells") == [
            ("cells", label) for label in toy.groups
        ]
        fresh = toy_dataset()
        assert values == {m: group_metric(fresh, "F", m) for m in values}
        assert summary == {m: group_metric(fresh, "M", m) for m in MetricId}
        for label, built in zip("FM", replicates):
            again = _group_replicates(fresh, label, (MetricId.ACCURACY,), config)
            assert np.array_equal(built, again)
        assert np.array_equal(resampled.score, resample_within_groups(fresh, 3, 2).score)
        assert test == independence_test(fresh)

    def test_column_checks_run_on_every_call(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 0]),
            group=np.array(["a", "a", "b", "b"], dtype=object),
            score=np.array([0.9, np.nan, 0.4, 0.2]),
            decision=np.array([1, 0, 1, 0]),
        )
        assert group_metric(ds, "a", MetricId.TPR) == 1.0
        for _ in range(2):
            with pytest.raises(InputError, match="records without scores"):
                group_metric(ds, "a", MetricId.BRIER_SCORE)
            with pytest.raises(InputError, match="unknown group"):
                group_metric(ds, "x", MetricId.TPR)

    def test_kept_sums_are_read_only(self, toy):
        cells = metrics._cells(toy, "M")
        for kept in (cells.rows, cells.sizes, metrics._metric_table(toy)["M"]):
            with pytest.raises(ValueError):
                kept[0] = 0

    def test_audit_builds_one_table_per_dataset_and_stratum(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = 300
        score = rng.uniform(0.0, 1.0, n)
        ds = AuditDataset(
            outcome=(rng.uniform(0.0, 1.0, n) < score).astype(int),
            group=np.array(["a", "b", "c"] * (n // 3), dtype=object),
            score=score,
            decision=(score > 0.5).astype(int),
            covariates={"age": rng.uniform(20.0, 90.0, n)},
        )
        builds = []
        metric_values = metrics._metric_values
        monkeypatch.setattr(
            metrics, "_metric_values", lambda *args: builds.append(1) or metric_values(*args)
        )
        conditions = {"senior": "age >= 60"}
        reports = [evaluate_all(ds, "a", other, conditions=conditions) for other in ("b", "c")]
        _meta_for_metrics(ds, list(MetricId), list(MetaMetricKind), None)
        incompatibility_verdict(ds)
        assert all(row.status is RowStatus.EVALUATED for r in reports for row in r.rows)
        assert len(builds) == 2
        stratum = filter_condition(ds, "age >= 60")
        for data in (ds, stratum):
            assert ("metrics",) in data._memo
            for label in data.groups:
                row = metrics._metric_table(data)[label]
                assert not np.isnan(row).any()
                assert [group_metric(data, label, m) for m in MetricId] == row.tolist()


@st.composite
def table_datasets(draw) -> AuditDataset:
    """2-40 groups with small cells, some empty, and scores in {k/8}, whose
    sums are exact in any order. A record may lack its score or its
    decision (not both); a dataset may have no score or no decision column."""
    k = draw(st.integers(2, 40))
    labels = [f"g{i:02d}" for i in range(k)]
    group = labels + draw(st.lists(st.sampled_from(labels), max_size=3 * k))
    n = len(group)

    def column(high: int) -> np.ndarray:
        return np.array(draw(st.lists(st.integers(0, high), min_size=n, max_size=n)))

    columns = draw(st.sampled_from(["both", "score", "decision"]))
    outcome, score, decision = column(1), column(8) / 8.0, column(1)
    if columns == "both":
        blank = column(6)  # 0 blanks the score, 1 the decision
        score[blank == 0] = np.nan
        decision[blank == 1] = -1
    return AuditDataset(
        outcome=outcome,
        group=np.array(group, dtype=object),
        score=None if columns == "decision" else score,
        decision=None if columns == "score" else decision,
    )


def brute_force_row(dataset: AuditDataset, label: str) -> list[float]:
    """Every metric of one group straight from its records, in MetricId order."""
    rows = dataset.group == label
    y = dataset.outcome[rows].astype(bool)
    if dataset.decision is not None and (dataset.decision[rows] >= 0).all():
        d = dataset.decision[rows] == 1
        tp, fn, fp, tn = (y & d).sum(), (y & ~d).sum(), (~y & d).sum(), (~y & ~d).sum()
    else:
        tp = fn = fp = tn = np.nan
    s = np.full(len(y), np.nan) if dataset.score is None else dataset.score[rows]
    if np.isnan(s).any():
        s = np.full(len(y), np.nan)

    def ratio(num, den):
        return num / den if den != 0 and not np.isnan(num) else np.nan

    n, positives = len(y), y.sum()
    values = {
        MetricId.TPR: ratio(tp, tp + fn),
        MetricId.TNR: ratio(tn, tn + fp),
        MetricId.FPR: ratio(fp, tn + fp),
        MetricId.FNR: ratio(fn, tp + fn),
        MetricId.PPV: ratio(tp, tp + fp),
        MetricId.NPV: ratio(tn, tn + fn),
        MetricId.ACCURACY: ratio(tp + tn, n),
        MetricId.BRIER_SCORE: ratio(((s - y) ** 2).sum(), n),
        MetricId.MEAN_ABSOLUTE_ERROR: ratio(np.abs(s - y).sum(), n),
        MetricId.POSITIVE_RATE: ratio(tp + fp, n),
        MetricId.PREVALENCE: ratio(positives, n),
        MetricId.MEAN_SCORE_POS: ratio(s[y].sum(), positives),
        MetricId.MEAN_SCORE_NEG: ratio(s[~y].sum(), n - positives),
        MetricId.FN_FP_RATIO: ratio(fn, fp),
    }
    return [values[m] for m in MetricId]


@settings(max_examples=150)
@given(ds=table_datasets())
def test_metric_table_matches_a_brute_force_over_each_group(ds: AuditDataset):
    table = metrics._metric_table(ds)
    assert list(table) == list(ds.groups)
    for label in ds.groups:
        np.testing.assert_array_equal(table[label], brute_force_row(ds, label))


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

    @pytest.mark.parametrize("bins", [2, 3, 7, 10, 20, 33, 1000])
    def test_bins_match_a_binary_search_over_the_edges(self, bins):
        """Scores on, just below and just above every edge land where a binary
        search over the edges puts them."""
        edges = np.linspace(0.0, 1.0, bins + 1)
        near = np.concatenate([edges, np.nextafter(edges, 2.0), np.nextafter(edges, -1.0)])
        score = np.clip(np.concatenate([near, np.random.default_rng(bins).random(4000)]), 0.0, 1.0)
        ds = AuditDataset(
            outcome=np.zeros(score.size + 1, dtype=int),
            group=np.array(["a"] * score.size + ["b"], dtype=object),
            score=np.append(score, 0.5),
        )
        curve = calibration_curve(ds, "a", bins, min_bin_count=1)
        want = np.clip(np.searchsorted(edges, score, side="left") - 1, 0, bins - 1)
        counts = np.bincount(want, minlength=bins)
        assert curve.counts.tolist() == counts.tolist()
        with np.errstate(invalid="ignore", divide="ignore"):
            mean_score = np.bincount(want, weights=score, minlength=bins) / counts
        np.testing.assert_array_equal(curve.mean_score, mean_score)

    def test_counts_partition_group(self, toy):
        curve = calibration_curve(toy, "F", bins=7)
        assert curve.n == 8

    def test_needs_at_least_two_bins(self, toy):
        with pytest.raises(InputError, match="at least 2"):
            calibration_curve(toy, "F", bins=1)

    def test_at_most_ten_thousand_bins(self, toy):
        assert calibration_curve(toy, "F", bins=10**4).counts.size == 10**4
        with pytest.raises(InputError, match="bins must be at most 10000"):
            calibration_curve(toy, "F", bins=10**4 + 1)

    def test_needs_scores(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            decision=np.array([1, 0]),
        )
        with pytest.raises(InputError) as caught:
            calibration_curve(ds, "a")
        assert str(caught.value) == "risk scores not loaded"

    def test_needs_every_score_of_the_group(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1]),
            group=np.array(["a", "a", "b"], dtype=object),
            score=np.array([0.2, np.nan, 0.7]),
            decision=np.array([1, 0, 1]),
        )
        with pytest.raises(InputError, match="group 'a' has records without scores"):
            calibration_curve(ds, "a")


class TestCalibrationMemo:
    """A group's curve is built once per dataset, bins and min_bin_count."""

    def test_a_second_call_returns_the_memoized_read_only_curve(self, toy):
        curve = calibration_curve(toy, "F", bins=4, min_bin_count=2)
        assert calibration_curve(toy, "F", bins=4, min_bin_count=2) is curve
        for array in (curve.edges, curve.counts, curve.mean_score, curve.observed_rate):
            assert not array.flags.writeable
        assert not curve.sparse.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            curve.counts[0] = 0

    def test_other_bins_or_min_bin_count_build_a_new_curve(self, toy):
        curve = calibration_curve(toy, "F", bins=4, min_bin_count=2)
        wider = calibration_curve(toy, "F", bins=5, min_bin_count=2)
        stricter = calibration_curve(toy, "F", bins=4, min_bin_count=3)
        assert wider is not curve and wider.bins == 5
        assert stricter is not curve and stricter.sparse.tolist() == (curve.counts < 3).tolist()
        assert calibration_curve(toy, "M", bins=4, min_bin_count=2) is not curve

    def test_an_unscored_group_raises_on_every_call(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1]),
            group=np.array(["a", "a", "b"], dtype=object),
            score=np.array([0.2, np.nan, 0.7]),
            decision=np.array([1, 0, 1]),
        )
        for _ in range(2):
            with pytest.raises(InputError, match="group 'a' has records without scores"):
                calibration_curve(ds, "a")
        assert not [key for key in ds._memo if key[0] == "calibration"]

    def test_an_audit_builds_each_groups_curve_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        n, labels = 2400, [f"g{i:02d}" for i in range(12)]
        group = np.arange(n) % 12
        outcome = (rng.random(n) < 0.4).astype(int)
        score = np.clip(0.3 * outcome + 0.7 * rng.random(n), 0.0, 1.0)
        path = tmp_path / "twelve.csv"
        rows = (f"{y},{s:.4f},{labels[g]}" for y, s, g in zip(outcome, score, group))
        path.write_text("y,s,g\n" + "\n".join(rows) + "\n", encoding="utf-8")

        builds = []

        class CountingNumpy:
            """numpy, as fairaudit.metrics sees it, counting each group score
            column that a calibration curve bins."""

            def __getattr__(self, name):
                return getattr(np, name)

            def ceil(self, scaled):
                builds.append(len(scaled))
                return np.ceil(scaled)

        monkeypatch.setattr(metrics, "np", CountingNumpy())
        code = cli_main(
            [
                "audit", "--input", str(path), "--outcome", "y", "--group", "g",
                "--score", "s", "--threshold", "0.5", "--criteria", "all",
                "--bins", "5", "--min-bin-count", "1", "--output", os.devnull,
            ]
        )
        assert code == 0
        # the 11 pairs with the reference group need every group's curve: 12
        # builds of a 200-record group each, not two per pair (22)
        assert sorted(builds) == [n // 12] * 12
