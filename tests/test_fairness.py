"""Criterion components, pairwise comparisons, and full-report assembly."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fairaudit import (
    AuditDataset,
    BootstrapConfig,
    Category,
    Comparison,
    ComputationError,
    FairnessCriterion,
    InputError,
    MetricId,
    RowStatus,
    UNDEFINED,
    bootstrap_intervals,
    compare,
    compare_calibration,
    criterion_components,
    evaluate_all,
    filter_condition,
    group_metric,
    impute_medians,
    is_defined,
    make_comparison,
)
from fairaudit.fairness import (
    CANONICAL_ORDER,
    CRITERION_CATEGORY,
    DEFAULT_CRITERIA,
    coerce_criterion,
)
from fairaudit.inference import _group_replicates

from conftest import toy_dataset


def covariate_dataset() -> AuditDataset:
    outcome = [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]
    decision = [1, 1, 0, 0, 1, 0, 1, 1, 0, 0]
    group = ["a"] * 5 + ["b"] * 5
    age = [70.0, 55.0, 61.0, 40.0, 66.0, 72.0, 58.0, 63.0, 30.0, 69.0]
    return AuditDataset(
        outcome=np.array(outcome),
        group=np.array(group, dtype=object),
        decision=np.array(decision),
        covariates={"age": np.array(age)},
    )


class TestCriterionTables:
    def test_components_spot_checks(self):
        assert criterion_components("statistical_parity") == (MetricId.POSITIVE_RATE,)
        assert criterion_components("equalized_odds") == (MetricId.FNR, MetricId.FPR)
        assert criterion_components("conditional_use_accuracy") == (
            MetricId.PPV,
            MetricId.NPV,
        )
        assert criterion_components("treatment_equality") == (MetricId.FN_FP_RATIO,)
        assert criterion_components("well_calibration") == ()
        assert criterion_components("test_fairness") == ()

    def test_categories(self):
        assert CRITERION_CATEGORY[FairnessCriterion.STATISTICAL_PARITY] is Category.INDEPENDENCE
        assert CRITERION_CATEGORY[FairnessCriterion.EQUAL_OPPORTUNITY] is Category.SEPARATION
        assert CRITERION_CATEGORY[FairnessCriterion.PREDICTIVE_PARITY] is Category.SUFFICIENCY
        assert CRITERION_CATEGORY[FairnessCriterion.TREATMENT_EQUALITY] is Category.OTHER

    def test_every_criterion_has_component_entry(self):
        for criterion in FairnessCriterion:
            criterion_components(criterion)
            CRITERION_CATEGORY[criterion]

    def test_canonical_order_covers_everything_once(self):
        assert sorted(CANONICAL_ORDER, key=lambda c: c.value) == sorted(
            FairnessCriterion, key=lambda c: c.value
        )
        assert len(set(DEFAULT_CRITERIA)) == len(DEFAULT_CRITERIA)

    def test_unknown_criterion(self):
        with pytest.raises(InputError, match="unknown criterion"):
            coerce_criterion("parity_of_esteem")
        with pytest.raises(InputError, match="unknown criterion"):
            criterion_components("parity_of_esteem")


class TestCompare:
    def test_statistical_parity_exact(self):
        rows = compare(toy_dataset(), "statistical_parity", "F", "M")
        assert len(rows) == 1
        row = rows[0]
        assert row.metric is MetricId.POSITIVE_RATE
        assert row.value_a == 3 / 8
        assert row.value_b == 2 / 4
        assert row.diff == 3 / 8 - 2 / 4
        assert row.ratio == 0.75
        assert row.status is RowStatus.EVALUATED
        assert row.notes == ()
        assert row.condition is None

    def test_treatment_equality_exact(self):
        (row,) = compare(toy_dataset(), "treatment_equality", "F", "M")
        assert row.value_a == 2.0
        assert row.value_b == 1.0
        assert row.diff == 1.0
        assert row.ratio == 2.0

    def test_equalized_odds_component_order(self):
        rows = compare(toy_dataset(), "equalized_odds", "F", "M")
        assert [row.metric for row in rows] == [MetricId.FNR, MetricId.FPR]
        fnr, fpr = rows
        assert fnr.diff == 0.0 and fnr.ratio == 1.0
        assert fpr.value_a == 0.25 and fpr.value_b == 0.5
        assert fpr.ratio == 0.5

    def test_accepts_enum_and_string(self):
        ds = toy_dataset()
        by_enum = compare(ds, FairnessCriterion.OVERALL_ACCURACY, "F", "M")
        by_name = compare(ds, "overall_accuracy", "F", "M")
        assert by_enum == by_name

    def test_ratio_undefined_when_reference_zero(self):
        ds = AuditDataset(
            outcome=np.array([0, 0, 1, 0, 0, 1]),
            group=np.array(["a", "a", "a", "b", "b", "b"], dtype=object),
            decision=np.array([1, 0, 1, 0, 0, 1]),
        )
        (row,) = compare(ds, "predictive_equality", "a", "b")
        assert row.value_a == 0.5
        assert row.value_b == 0.0
        assert row.diff == 0.5
        assert row.ratio is UNDEFINED
        assert "reference value is 0" in row.notes[0]

    def test_undefined_value_propagates_with_note(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 0, 1, 1, 1]),
            group=np.array(["a", "a", "a", "b", "b", "b"], dtype=object),
            decision=np.array([1, 0, 1, 1, 0, 1]),
        )
        # group b has no negatives, so its FPR does not exist
        (row,) = compare(ds, "predictive_equality", "a", "b")
        assert row.status is RowStatus.EVALUATED
        assert row.value_b is UNDEFINED
        assert row.diff is UNDEFINED and row.ratio is UNDEFINED
        assert row.notes == ("fpr undefined for group 'b'",)

    def test_both_sides_undefined_notes_both_groups(self):
        row = make_comparison(
            FairnessCriterion.PREDICTIVE_EQUALITY,
            MetricId.FPR,
            "a",
            "b",
            UNDEFINED,
            UNDEFINED,
        )
        assert row.notes == (
            "fpr undefined for group 'a'",
            "fpr undefined for group 'b'",
        )

    def test_ratio_that_overflows_a_float_is_undefined_with_note(self):
        # 0.3 / 1e-320 exceeds the largest double; both values are defined
        row = make_comparison(
            FairnessCriterion.BALANCE_NEGATIVE,
            MetricId.MEAN_SCORE_NEG,
            "a",
            "b",
            0.3,
            1e-320,
        )
        assert row.diff == 0.3
        assert row.ratio is UNDEFINED
        assert row.notes == ("ratio undefined: overflows a float",)

    def test_rejects_conditional_and_calibration(self):
        ds = toy_dataset()
        with pytest.raises(InputError, match="use evaluate_all"):
            compare(ds, "conditional_statistical_parity", "F", "M")
        with pytest.raises(InputError, match="compare_calibration"):
            compare(ds, "well_calibration", "F", "M")

    def test_rejects_bad_pairs(self):
        ds = toy_dataset()
        with pytest.raises(InputError, match="unknown group"):
            compare(ds, "statistical_parity", "F", "X")
        with pytest.raises(InputError, match="distinct"):
            compare(ds, "statistical_parity", "F", "F")


class TestCompareConditional:
    """Conditional statistical parity rows, which evaluate_all builds from a
    condition's stratum."""

    @staticmethod
    def _row(condition):
        report = evaluate_all(
            covariate_dataset(),
            "a",
            "b",
            criteria=["conditional_statistical_parity"],
            conditions={"senior": condition},
        )
        (row,) = report.rows
        return row

    def test_matches_manual_filter(self):
        row = self._row("age >= 60")
        manual = compare(
            filter_condition(covariate_dataset(), "age >= 60"), "statistical_parity", "a", "b"
        )[0]
        assert row.criterion is FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY
        assert row.condition == "senior"
        assert row.metric is MetricId.POSITIVE_RATE
        assert (row.value_a, row.value_b) == (manual.value_a, manual.value_b)
        assert row.diff == manual.diff and row.ratio == manual.ratio

    def test_exact_stratum_values(self):
        row = self._row("age >= 60")
        assert row.value_a == 2 / 3
        assert row.value_b == 1 / 3
        assert row.ratio == 2.0

    def test_emptied_group_gives_error_row(self):
        row = self._row("age >= 71")
        assert row.status is RowStatus.ERROR
        assert row.notes == ("condition 'age >= 71' leaves group 'a' empty",)

    @pytest.mark.parametrize("dtype", [np.int64, np.int16, np.uint8, bool])
    def test_integer_and_boolean_covariates_are_numeric(self, dtype):
        floats = covariate_dataset()
        age = floats.covariates["age"]
        column = age >= 60 if dtype is bool else age.astype(dtype)
        condition = "age == 1" if dtype is bool else "age >= 60"
        ints = dataclasses.replace(floats, group=floats._group, covariates={"age": column})
        assert ints.covariates["age"].dtype == np.float64
        assert impute_medians(ints) is ints  # nothing to fill
        stratum = filter_condition(ints, condition)
        expected = filter_condition(floats, "age >= 60")
        assert np.array_equal(stratum.outcome, expected.outcome)
        assert np.array_equal(stratum.decision, expected.decision)
        assert np.array_equal(stratum.group, expected.group)
        rows = evaluate_all(ints, "a", "b", conditions={"senior": condition}).rows
        assert rows == evaluate_all(floats, "a", "b", conditions={"senior": "age >= 60"}).rows


class TestCompareCalibration:
    @staticmethod
    def _dataset(scores_a, outcomes_a, scores_b, outcomes_b):
        scores = list(scores_a) + list(scores_b)
        outcomes = list(outcomes_a) + list(outcomes_b)
        group = ["a"] * len(scores_a) + ["b"] * len(scores_b)
        return AuditDataset(
            outcome=np.array(outcomes),
            group=np.array(group, dtype=object),
            score=np.array(scores),
            decision=np.zeros(len(scores), dtype=np.int8),
        )

    def test_hand_computed_gaps(self):
        ds = self._dataset(
            [0.2, 0.3, 0.8, 0.9], [0, 1, 1, 1], [0.1, 0.4, 0.6, 0.7], [0, 0, 1, 0]
        )
        result = compare_calibration(ds, "a", "b", bins=2, min_bin_count=2)
        # group a, low bin: mean score 0.25, observed 0.5
        assert result.gap_a == pytest.approx(0.25, rel=1e-12)
        assert result.gap_b == pytest.approx(0.25, rel=1e-12)
        assert result.between_gap == pytest.approx(0.5, rel=1e-12)
        assert result.curve_a.group == "a"
        assert list(result.curve_a.counts) == [2, 2]

    def test_no_shared_bin_raises(self):
        ds = self._dataset(
            [0.1, 0.2, 0.3], [0, 0, 1], [0.7, 0.8, 0.9], [1, 1, 0]
        )
        with pytest.raises(ComputationError, match="populated in both groups"):
            compare_calibration(ds, "a", "b", bins=2, min_bin_count=2)

    def test_all_bins_sparse_for_one_group_raises(self):
        ds = self._dataset(
            [0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1], [0.6, 0.9], [1, 0]
        )
        with pytest.raises(ComputationError, match="group 'b'"):
            compare_calibration(ds, "a", "b", bins=2, min_bin_count=3)

    def test_needs_scores(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 0]),
            group=np.array(["a", "a", "b", "b"], dtype=object),
            decision=np.array([1, 0, 1, 0]),
        )
        with pytest.raises(InputError):
            compare_calibration(ds, "a", "b")


class TestEvaluateAll:
    def test_default_rows_in_canonical_order(self, toy):
        report = evaluate_all(toy, "F", "M")
        assert report.group_a == "F" and report.group_b == "M"
        assert [row.criterion.value for row in report.rows] == [
            "statistical_parity",
            "equal_opportunity",
            "predictive_equality",
            "balance_positive",
            "balance_negative",
            "predictive_parity",
            "brier_parity",
            "overall_accuracy",
            "treatment_equality",
        ]
        assert all(row.status is RowStatus.EVALUATED for row in report.rows)
        assert report.calibration is None

    def test_two_metric_criterion_emits_two_rows(self, toy):
        report = evaluate_all(toy, "F", "M", criteria=["equalized_odds"])
        assert [row.metric for row in report.rows] == [MetricId.FNR, MetricId.FPR]
        assert {row.criterion for row in report.rows} == {
            FairnessCriterion.EQUALIZED_ODDS
        }

    def test_conditions_add_rows_after_statistical_parity(self):
        ds = covariate_dataset()
        report = evaluate_all(
            ds,
            "a",
            "b",
            criteria=["statistical_parity", "overall_accuracy"],
            conditions={"senior": "age >= 60", "midlife": "age >= 50"},
        )
        kinds = [(row.criterion.value, row.condition) for row in report.rows]
        assert kinds == [
            ("statistical_parity", None),
            ("conditional_statistical_parity", "senior"),
            ("conditional_statistical_parity", "midlife"),
            ("overall_accuracy", None),
        ]

    def test_condition_error_becomes_error_row(self):
        ds = covariate_dataset()
        report = evaluate_all(
            ds,
            "a",
            "b",
            criteria=["statistical_parity"],
            conditions={"ancient": "age >= 71"},
        )
        row = report.rows[1]
        assert row.status is RowStatus.ERROR
        assert row.condition == "ancient"
        assert row.diff is UNDEFINED
        assert "leaves group" in row.notes[0]
        # the unconditional row is untouched
        assert report.rows[0].status is RowStatus.EVALUATED

    def test_conditional_criterion_without_conditions_rejected(self, toy):
        with pytest.raises(InputError, match="at least one condition"):
            evaluate_all(toy, "F", "M", criteria=["conditional_statistical_parity"])

    def test_score_rows_not_evaluated_without_scores(self, toy):
        ds = AuditDataset(
            outcome=toy.outcome,
            group=toy.group,
            decision=toy.decision,
        )
        report = evaluate_all(ds, "F", "M")
        by_criterion = {row.criterion.value: row for row in report.rows}
        for name in ("balance_positive", "balance_negative", "brier_parity"):
            row = by_criterion[name]
            assert row.status is RowStatus.NOT_EVALUATED
            assert row.notes == ("risk scores not loaded",)
            assert row.diff is UNDEFINED
        assert by_criterion["statistical_parity"].status is RowStatus.EVALUATED

    def test_score_rows_not_evaluated_when_a_record_lacks_a_score(self, toy):
        # the score column is bound, so "not loaded" would be wrong
        score = toy.score.copy()
        score[0] = np.nan
        ds = AuditDataset(
            outcome=toy.outcome, group=toy.group, score=score, decision=toy.decision
        )
        criteria = [
            c for c in CANONICAL_ORDER if c is not FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY
        ]
        report = evaluate_all(ds, "F", "M", criteria=criteria)
        by_criterion = {row.criterion.value: row for row in report.rows}
        for name in ("balance_positive", "balance_negative", "brier_parity"):
            row = by_criterion[name]
            assert row.status is RowStatus.NOT_EVALUATED
            assert row.notes == ("risk scores missing for some records",)
            assert row.value_a is UNDEFINED and row.diff is UNDEFINED
        assert by_criterion["statistical_parity"].status is RowStatus.EVALUATED
        assert report.calibration is None
        assert report.notes == (
            "calibration criteria skipped: risk scores missing for some records",
        )

    def test_requires_decisions(self, toy):
        ds = AuditDataset(outcome=toy.outcome, group=toy.group, score=toy.score)
        with pytest.raises(InputError, match="decisions"):
            evaluate_all(ds, "F", "M")

    def test_missing_decisions_are_counted(self, toy):
        decision = toy.decision.copy()
        decision[[1, 9]] = -1
        ds = AuditDataset(outcome=toy.outcome, group=toy.group, score=toy.score, decision=decision)
        with pytest.raises(InputError) as raised:
            evaluate_all(ds, "F", "M")
        assert str(raised.value) == (
            "decisions missing for 2 of 12 records; apply a threshold or bind a decision column"
        )

    def test_calibration_block_attached_when_requested(self, toy):
        report = evaluate_all(
            toy,
            "F",
            "M",
            criteria=["statistical_parity", "well_calibration"],
            bins=2,
            min_bin_count=2,
        )
        assert report.calibration is not None
        assert report.calibration.curve_a.group == "F"
        assert len(report.rows) == 1

    def test_calibration_skipped_without_scores(self, toy):
        ds = AuditDataset(outcome=toy.outcome, group=toy.group, decision=toy.decision)
        report = evaluate_all(ds, "F", "M", criteria=["test_fairness"])
        assert report.calibration is None
        assert report.notes == ("calibration criteria skipped: risk scores not loaded",)

    def test_bootstrap_attaches_intervals(self, toy):
        # tiny groups leave some statistics undefined on many resamples,
        # so lift the discard cap rather than the iteration count
        config = BootstrapConfig(iterations=80, seed=7, degenerate_tolerance=1.0)
        report = evaluate_all(toy, "F", "M", bootstrap=config)
        for row in report.rows:
            assert row.ci_diff is not None
            assert row.ci_diff.lower <= row.diff <= row.ci_diff.upper
            if is_defined(row.ratio) and row.ratio > 0:
                assert row.ci_ratio is not None

    def test_bootstrap_skips_ratio_interval_at_zero(self):
        # group b never produces a false positive, so the FPR ratio and its
        # interval are undefined while the difference interval still exists
        outcome = np.array([0] * 6 + [0] * 6)
        decision = np.array([1, 1, 0, 0, 1, 0] + [0] * 6)
        ds = AuditDataset(
            outcome=outcome,
            group=np.array(["a"] * 6 + ["b"] * 6, dtype=object),
            decision=decision,
        )
        config = BootstrapConfig(iterations=50, seed=3)
        report = evaluate_all(
            ds, "a", "b", criteria=["predictive_equality"], bootstrap=config
        )
        (row,) = report.rows
        assert row.ci_diff is not None
        assert row.ci_ratio is None
        assert any("strictly positive" in note for note in row.notes)

    def test_bootstrap_covers_conditional_rows(self):
        ds = covariate_dataset()
        config = BootstrapConfig(iterations=60, seed=11, degenerate_tolerance=1.0)
        report = evaluate_all(
            ds,
            "a",
            "b",
            criteria=["statistical_parity"],
            conditions={"senior": "age >= 60"},
            bootstrap=config,
        )
        base, conditional = report.rows
        assert conditional.condition == "senior"
        assert conditional.ci_diff is not None
        # the stratum resample differs from the full-data resample
        assert conditional.ci_diff != base.ci_diff

    def test_bootstrap_with_only_conditional_rows(self):
        ds = covariate_dataset()
        config = BootstrapConfig(iterations=60, seed=11, degenerate_tolerance=1.0)
        conditions = {"senior": "age >= 60"}
        _, mixed = evaluate_all(
            ds, "a", "b", criteria=["statistical_parity"], conditions=conditions, bootstrap=config
        ).rows
        (only,) = evaluate_all(
            ds, "a", "b", criteria=[], conditions=conditions, bootstrap=config
        ).rows
        assert only.condition == "senior" and only.ci_diff is not None
        # a stratum's resamples do not depend on which other rows asked for intervals
        assert only == mixed

    def test_swap_is_antisymmetric(self, toy):
        forward = evaluate_all(toy, "F", "M").rows
        backward = evaluate_all(toy, "M", "F").rows
        for fwd, bwd in zip(forward, backward):
            assert fwd.criterion is bwd.criterion
            if is_defined(fwd.diff):
                assert bwd.diff == -fwd.diff
                assert (fwd.value_a, fwd.value_b) == (bwd.value_b, bwd.value_a)

    def test_stratum_discard_error_names_condition_pair_and_metric(self):
        # half the records decide positive, so the full-data positive rate
        # always resamples above 0; the x == 1 stratum has three records
        # per group with one positive, so about 30% of its resamples have
        # none and the ratio interval discards them
        group, decision, x = [], [], []
        for label in ("a", "b"):
            group += [label] * 43
            decision += [1, 0] * 20 + [1, 0, 0]
            x += [0.0] * 40 + [1.0] * 3
        ds = AuditDataset(
            outcome=np.ones(86, dtype=int),
            group=np.array(group, dtype=object),
            decision=np.array(decision),
            covariates={"x": np.array(x)},
        )
        with pytest.raises(ComputationError) as info:
            evaluate_all(
                ds,
                "a",
                "b",
                criteria=["statistical_parity"],
                conditions={"rare": "x >= 1"},
                bootstrap=BootstrapConfig(iterations=100, seed=0),
            )
        assert str(info.value).startswith(
            "condition 'rare', positive_rate, 'a' vs 'b': bootstrap discarded "
        )


def three_group_dataset() -> AuditDataset:
    rng = np.random.default_rng(4)
    n = 360
    outcome = (rng.random(n) < 0.4).astype(int)
    score = np.clip(0.25 + 0.4 * outcome + rng.normal(0.0, 0.2, n), 0.0, 1.0)
    return AuditDataset(
        outcome=outcome,
        group=np.array(["a", "b", "c"] * (n // 3), dtype=object),
        score=score,
        decision=(score > 0.5).astype(int),
        covariates={"age": rng.integers(20, 90, n).astype(float)},
    )


class TestOneRowPath:
    """Every evaluated row is its two table values plus its pair of intervals."""

    # every scalar criterion after statistical parity and its conditional rows
    CRITERIA = [c for c in CANONICAL_ORDER[2:] if criterion_components(c)]
    CONDITIONS = {"senior": "age >= 60"}
    CONFIG = BootstrapConfig(iterations=200, seed=5, degenerate_tolerance=1.0)

    def reports(self):
        ds = three_group_dataset()
        for a, b in (("a", "b"), ("a", "c")):
            yield ds, a, b, evaluate_all(
                ds,
                a,
                b,
                criteria=["statistical_parity", *self.CRITERIA],
                conditions=self.CONDITIONS,
                bootstrap=self.CONFIG,
            )

    def test_rows_equal_rows_built_from_the_table_and_intervals(self):
        for ds, a, b, report in self.reports():
            assert [(row.criterion, row.condition) for row in report.rows[:2]] == [
                (FairnessCriterion.STATISTICAL_PARITY, None),
                (FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY, "senior"),
            ]
            assert len(report.rows) == 2 + sum(
                len(criterion_components(c)) for c in self.CRITERIA
            )
            for row in report.rows:
                assert row.status is RowStatus.EVALUATED
                stratum = ds if row.condition is None else filter_condition(ds, "age >= 60")
                metric = row.metric
                expected = make_comparison(
                    row.criterion,
                    metric,
                    a,
                    b,
                    group_metric(stratum, a, metric),
                    group_metric(stratum, b, metric),
                    row.condition,
                    intervals=bootstrap_intervals(stratum, [metric], a, b, self.CONFIG)[metric],
                )
                assert row == expected

    def test_intervals_are_wald_on_the_difference_and_on_the_log_ratio(self):
        ratios = 0
        for ds, a, b, report in self.reports():
            for row in report.rows:
                stratum = ds if row.condition is None else filter_condition(ds, "age >= 60")
                va = _group_replicates(stratum, a, (row.metric,), self.CONFIG)[:, 0]
                vb = _group_replicates(stratum, b, (row.metric,), self.CONFIG)[:, 0]
                kept = np.isfinite(va) & np.isfinite(vb)
                half = self.CONFIG.z * np.std(va[kept] - vb[kept], ddof=1)
                assert row.ci_diff.lower == pytest.approx(row.diff - half, rel=1e-12)
                assert row.ci_diff.upper == pytest.approx(row.diff + half, rel=1e-12)
                if row.ci_ratio is None:
                    continue
                ratios += 1
                with np.errstate(divide="ignore", invalid="ignore"):
                    la, lb = np.log(va), np.log(vb)
                kept = np.isfinite(la) & np.isfinite(lb)
                half = self.CONFIG.z * np.std(la[kept] - lb[kept], ddof=1)
                center = math.log(row.value_a) - math.log(row.value_b)
                assert row.ci_ratio.lower == pytest.approx(math.exp(center - half), rel=1e-12)
                assert row.ci_ratio.upper == pytest.approx(math.exp(center + half), rel=1e-12)
        assert ratios >= 10

    def test_interval_notes_follow_the_value_notes(self):
        # group b never decides positive, in the stratum or outside it, so
        # both rows carry a value note and an interval note about the ratio
        outcome = [1, 0, 1, 0, 1, 0] * 2
        decision = [1, 1, 0, 0, 1, 0] + [0] * 6
        ds = AuditDataset(
            outcome=np.array(outcome),
            group=np.array(["a"] * 6 + ["b"] * 6, dtype=object),
            decision=np.array(decision),
            covariates={"x": np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0] * 2)},
        )
        report = evaluate_all(
            ds,
            "a",
            "b",
            criteria=["statistical_parity"],
            conditions={"x1": "x >= 1"},
            bootstrap=BootstrapConfig(iterations=50, seed=3),
        )
        base, conditional = report.rows
        assert conditional.criterion is FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY
        assert conditional.condition == "x1"
        for row in (base, conditional):
            assert row.ci_diff is not None and row.ci_ratio is None
            assert row.notes == (
                "ratio undefined: reference value is 0",
                "ratio interval skipped: needs strictly positive values",
            )


class TestComparisonDataclass:
    def test_category_property(self):
        row = make_comparison(
            FairnessCriterion.STATISTICAL_PARITY,
            MetricId.POSITIVE_RATE,
            "a",
            "b",
            0.3,
            0.2,
        )
        assert row.category is Category.INDEPENDENCE

    def test_rows_are_frozen(self):
        row = make_comparison(
            FairnessCriterion.STATISTICAL_PARITY,
            MetricId.POSITIVE_RATE,
            "a",
            "b",
            0.3,
            0.2,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.diff = 0.0
