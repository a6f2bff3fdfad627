"""Incompatibility diagnostics and epsilon-tolerance verdicts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fairaudit import (
    AuditDataset,
    Comparison,
    FairnessCriterion,
    FairnessReport,
    IncompatiblePair,
    InputError,
    MetricId,
    RowStatus,
    UNDEFINED,
    Verdict,
    epsilon_assessment,
    evaluate_all,
    incompatibility_verdict,
    independence_test,
    is_defined,
    prevalence_by_group,
)
from fairaudit.diagnostics import _chi2_survival

from conftest import toy_dataset


def two_group_dataset(pos_a: int, n_a: int, pos_b: int, n_b: int, flips: int = 0):
    """Block-structured outcomes, decisions equal to outcomes except that
    the first `flips` positives and `flips` negatives of each group are
    flipped (keeping the decisions informative but imperfect)."""
    outcome = np.concatenate(
        [
            np.ones(pos_a, dtype=np.int8),
            np.zeros(n_a - pos_a, dtype=np.int8),
            np.ones(pos_b, dtype=np.int8),
            np.zeros(n_b - pos_b, dtype=np.int8),
        ]
    )
    decision = outcome.copy()
    for start, pos in ((0, pos_a), (n_a, pos_b)):
        decision[start : start + flips] ^= 1
        decision[start + pos : start + pos + flips] ^= 1
    group = np.array(["a"] * n_a + ["b"] * n_b, dtype=object)
    return AuditDataset(outcome=outcome, group=group, decision=decision)


def pearson_statistic(table) -> float:
    table = np.asarray(table, dtype=np.float64)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    return float(((table - expected) ** 2 / expected).sum())


class TestIndependenceTest:
    def test_frozen_two_group_case(self):
        ds = two_group_dataset(95, 500, 70, 500, flips=15)
        result = independence_test(ds)
        assert result.statistic == pytest.approx(4.536381781890764, abs=1e-9)
        assert result.p_value == pytest.approx(0.03318165805399439, abs=1e-9)
        assert result.reject is True

    def test_statistic_matches_analytic_formula(self):
        ds = two_group_dataset(95, 500, 70, 500)
        expected = pearson_statistic([[95, 405], [70, 430]])
        assert independence_test(ds).statistic == pytest.approx(expected, rel=1e-12)

    def test_p_value_matches_one_dof_survival(self):
        # with one degree of freedom the chi-square tail is erfc(sqrt(t/2))
        ds = two_group_dataset(95, 500, 70, 500)
        result = independence_test(ds)
        assert result.p_value == pytest.approx(
            math.erfc(math.sqrt(result.statistic / 2.0)), rel=1e-9
        )

    def test_three_groups_use_two_dof(self):
        # with two degrees of freedom the survival function is exp(-t/2)
        ds = AuditDataset(
            outcome=np.array([1] * 12 + [0] * 28 + [1] * 4 + [0] * 36 + [1] * 20 + [0] * 20),
            group=np.array(["a"] * 40 + ["b"] * 40 + ["c"] * 40, dtype=object),
            decision=np.zeros(120, dtype=np.int8),
        )
        result = independence_test(ds)
        assert result.statistic == pytest.approx(
            pearson_statistic([[12, 28], [4, 36], [20, 20]]), rel=1e-12
        )
        assert result.p_value == pytest.approx(
            math.exp(-result.statistic / 2.0), rel=1e-9
        )

    def test_equal_rates_give_zero_statistic(self):
        ds = two_group_dataset(60, 400, 60, 400, flips=10)
        result = independence_test(ds)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.reject is False

    def test_small_expected_counts_become_a_note(self):
        ds = two_group_dataset(2, 6, 1, 6)
        assert independence_test(ds).min_expected == 1.5
        assert incompatibility_verdict(ds).notes == (
            "chi-square approximation is unreliable: the smallest expected cell "
            "count is 1.5, below 5",
        )

    def test_needs_both_outcome_values(self):
        ds = two_group_dataset(0, 10, 0, 10)
        with pytest.raises(InputError, match="both outcome values"):
            independence_test(ds)

    def test_level_validated(self):
        ds = two_group_dataset(95, 500, 70, 500)
        for level in (0.0, 1.0, -0.5):
            with pytest.raises(InputError, match="level"):
                independence_test(ds, level)

    def test_level_changes_reject(self):
        ds = two_group_dataset(95, 500, 70, 500)
        assert independence_test(ds, 0.05).reject is True
        assert independence_test(ds, 0.01).reject is False


class TestChi2Survival:
    def test_matches_scipy_oracle(self):
        from scipy.stats import chi2

        statistics = np.geomspace(1e-8, 5e3, 400)
        for dof in [*range(1, 60), 99, 199, 499, 999]:
            reference = chi2.sf(statistics, dof)
            for statistic, expected in zip(statistics, reference):
                if expected > 1e-300:
                    assert _chi2_survival(float(statistic), dof) == pytest.approx(
                        expected, rel=1e-12, abs=0.0
                    ), (statistic, dof)

    def test_zero_dof_is_one(self):
        assert _chi2_survival(3.0, 0) == 1.0

    def test_zero_statistic_is_one(self):
        for dof in (1, 2, 7):
            assert _chi2_survival(0.0, dof) == 1.0

    def test_huge_statistic_underflows_quietly(self):
        p_value = _chi2_survival(1e6, 999)
        assert math.isfinite(p_value)
        assert p_value >= 0.0


class TestPrevalence:
    def test_exact_rates(self):
        ds = two_group_dataset(95, 500, 70, 500)
        assert prevalence_by_group(ds) == {"a": 0.19, "b": 0.14}

    def test_keys_sorted(self):
        assert list(prevalence_by_group(toy_dataset())) == ["F", "M"]


class TestIncompatibilityVerdict:
    def test_all_three_flagged(self):
        ds = two_group_dataset(95, 500, 70, 500, flips=15)
        verdict = incompatibility_verdict(ds)
        assert verdict.reject_independence is True
        assert verdict.informative is True
        assert verdict.imperfect is True
        assert verdict.flagged == (
            IncompatiblePair.INDEPENDENCE_SUFFICIENCY,
            IncompatiblePair.INDEPENDENCE_SEPARATION,
            IncompatiblePair.SEPARATION_SUFFICIENCY,
        )
        assert verdict.prevalence == {"a": 0.19, "b": 0.14}
        assert verdict.level == 0.05
        assert verdict.notes == ()

    def test_equal_base_rates_flag_nothing(self):
        ds = two_group_dataset(60, 400, 60, 400, flips=10)
        verdict = incompatibility_verdict(ds)
        assert verdict.reject_independence is False
        assert verdict.flagged == ()
        # the predictor itself is informative and imperfect; only the
        # base-rate test gates the flags
        assert verdict.informative and verdict.imperfect

    def test_perfect_predictor_drops_separation_sufficiency(self):
        ds = two_group_dataset(95, 500, 70, 500, flips=0)
        verdict = incompatibility_verdict(ds)
        assert verdict.imperfect is False
        assert verdict.flagged == (
            IncompatiblePair.INDEPENDENCE_SUFFICIENCY,
            IncompatiblePair.INDEPENDENCE_SEPARATION,
        )

    def test_constant_predictor_drops_independence_separation(self):
        ds = two_group_dataset(95, 500, 70, 500)
        constant = AuditDataset(
            outcome=ds.outcome,
            group=ds.group,
            decision=np.zeros(ds.n, dtype=np.int8),
        )
        verdict = incompatibility_verdict(constant)
        assert verdict.informative is False
        assert verdict.imperfect is True
        assert verdict.flagged == (
            IncompatiblePair.INDEPENDENCE_SUFFICIENCY,
            IncompatiblePair.SEPARATION_SUFFICIENCY,
        )

    def test_needs_decisions(self):
        ds = two_group_dataset(95, 500, 70, 500)
        scores_only = AuditDataset(
            outcome=ds.outcome, group=ds.group, score=np.full(ds.n, 0.5)
        )
        with pytest.raises(InputError, match="decisions"):
            incompatibility_verdict(scores_only)


def mk_row(
    criterion: str,
    diff,
    condition: str | None = None,
    status: RowStatus = RowStatus.EVALUATED,
) -> Comparison:
    defined = is_defined(diff) and status is RowStatus.EVALUATED
    return Comparison(
        criterion=FairnessCriterion(criterion),
        metric=MetricId.POSITIVE_RATE,
        group_a="a",
        group_b="b",
        value_a=0.5 if defined else UNDEFINED,
        value_b=(0.5 - diff) if defined else UNDEFINED,
        diff=diff if defined else UNDEFINED,
        ratio=UNDEFINED,
        condition=condition,
        status=status,
    )


def mk_report(*rows: Comparison) -> FairnessReport:
    return FairnessReport(group_a="a", group_b="b", rows=tuple(rows))


class TestEpsilonAssessment:
    def test_boundary_difference_fails(self):
        report = mk_report(mk_row("statistical_parity", 0.05))
        result = epsilon_assessment(report, 0.05)
        assert result.verdicts == {"statistical_parity": Verdict.FAIL}

    def test_just_inside_passes(self):
        report = mk_report(mk_row("statistical_parity", 0.049))
        assert epsilon_assessment(report, 0.05).verdicts == {
            "statistical_parity": Verdict.PASS
        }

    def test_absolute_value_is_judged(self):
        report = mk_report(mk_row("statistical_parity", -0.06))
        assert epsilon_assessment(report, 0.05).verdicts == {
            "statistical_parity": Verdict.FAIL
        }

    def test_undefined_difference_is_undefined(self):
        report = mk_report(mk_row("treatment_equality", UNDEFINED))
        assert epsilon_assessment(report, 0.05).verdicts == {
            "treatment_equality": Verdict.UNDEFINED
        }

    @pytest.mark.parametrize("status", [RowStatus.NOT_EVALUATED, RowStatus.ERROR])
    def test_unevaluated_rows_are_undefined(self, status):
        report = mk_report(mk_row("brier_parity", 0.01, status=status))
        assert epsilon_assessment(report, 0.05).verdicts == {
            "brier_parity": Verdict.UNDEFINED
        }

    def test_undefined_dominates_fail_in_compound_criterion(self):
        for order in (
            (mk_row("equalized_odds", 0.2), mk_row("equalized_odds", UNDEFINED)),
            (mk_row("equalized_odds", UNDEFINED), mk_row("equalized_odds", 0.2)),
        ):
            result = epsilon_assessment(mk_report(*order), 0.05)
            assert result.verdicts == {"equalized_odds": Verdict.UNDEFINED}

    def test_compound_criterion_needs_every_component_inside(self):
        passing = mk_report(
            mk_row("equalized_odds", 0.01), mk_row("equalized_odds", 0.02)
        )
        failing = mk_report(
            mk_row("equalized_odds", 0.01), mk_row("equalized_odds", 0.07)
        )
        assert epsilon_assessment(passing, 0.05).verdicts["equalized_odds"] is Verdict.PASS
        assert epsilon_assessment(failing, 0.05).verdicts["equalized_odds"] is Verdict.FAIL

    def test_conditions_get_bracketed_keys(self):
        report = mk_report(
            mk_row("statistical_parity", 0.01),
            mk_row("conditional_statistical_parity", 0.2, condition="senior"),
        )
        result = epsilon_assessment(report, 0.05)
        assert result.verdicts == {
            "statistical_parity": Verdict.PASS,
            "conditional_statistical_parity[senior]": Verdict.FAIL,
        }

    def test_epsilon_must_be_positive(self):
        report = mk_report(mk_row("statistical_parity", 0.01))
        for epsilon in (0.0, -0.1):
            with pytest.raises(InputError, match="positive"):
                epsilon_assessment(report, epsilon)

    def test_context_recorded(self):
        report = mk_report(mk_row("statistical_parity", 0.01))
        result = epsilon_assessment(report, 0.25)
        assert result.epsilon == 0.25
        assert (result.group_a, result.group_b) == ("a", "b")

    def test_full_report_round_trip(self, toy):
        report = evaluate_all(toy, "F", "M")
        verdicts = epsilon_assessment(report, 10.0).verdicts
        assert set(verdicts) == {
            "statistical_parity",
            "equal_opportunity",
            "predictive_equality",
            "balance_positive",
            "balance_negative",
            "predictive_parity",
            "brier_parity",
            "overall_accuracy",
            "treatment_equality",
        }
        assert all(v is Verdict.PASS for v in verdicts.values())
