"""Group fairness criteria expressed as pairwise metric comparisons.

Each criterion compares one or two per-group metrics between a reference
group and a comparison group, reporting the difference and the ratio.
Every row is built once, by :func:`make_comparison`, with its bootstrap
intervals (if any) attached at construction. Calibration-style criteria
compare binned curves instead and live in :func:`compare_calibration`.
To add or change a criterion, edit its one entry in ``_CRITERIA``; every
public criterion table is derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .conditions import ConditionPredicate
from .dataset import AuditDataset, _missing_scores, _require_decisions, filter_condition
from .errors import ComputationError, InputError
from .inference import BootstrapConfig, Interval, PairIntervals, bootstrap_intervals
from .metrics import (
    BINS_DEFAULT,
    MIN_BIN_COUNT_DEFAULT,
    SCORE_METRICS,
    CalibrationCurve,
    MetricId,
    MetricValue,
    UNDEFINED,
    _check_pair,
    calibration_curve,
    group_metric,
    is_defined,
)


class Category(Enum):
    """Which conditional-independence family a criterion belongs to."""

    INDEPENDENCE = "independence"
    SEPARATION = "separation"
    SUFFICIENCY = "sufficiency"
    OTHER = "other"


class FairnessCriterion(Enum):
    STATISTICAL_PARITY = "statistical_parity"
    CONDITIONAL_STATISTICAL_PARITY = "conditional_statistical_parity"
    EQUALIZED_ODDS = "equalized_odds"
    PREDICTIVE_EQUALITY = "predictive_equality"
    EQUAL_OPPORTUNITY = "equal_opportunity"
    BALANCE_POSITIVE = "balance_positive"
    BALANCE_NEGATIVE = "balance_negative"
    CONDITIONAL_USE_ACCURACY = "conditional_use_accuracy"
    PREDICTIVE_PARITY = "predictive_parity"
    WELL_CALIBRATION = "well_calibration"
    TEST_FAIRNESS = "test_fairness"
    BRIER_PARITY = "brier_parity"
    OVERALL_ACCURACY = "overall_accuracy"
    TREATMENT_EQUALITY = "treatment_equality"


# The one table of criteria, in report row order: label, category, the
# per-group metrics compared (one row each) and whether an audit runs the
# criterion by default. Calibration criteria compare binned curves, so they
# have no components, and are opt-in because they need well-populated bins.
_CRITERIA: dict[FairnessCriterion, tuple[str, Category, tuple[MetricId, ...], bool]] = {
    FairnessCriterion.STATISTICAL_PARITY:
        ("Statistical Parity", Category.INDEPENDENCE, (MetricId.POSITIVE_RATE,), True),
    FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY: (
        "Conditional Statistical Parity", Category.INDEPENDENCE,
        (MetricId.POSITIVE_RATE,), False,
    ),
    FairnessCriterion.EQUAL_OPPORTUNITY:
        ("Equal Opportunity", Category.SEPARATION, (MetricId.FNR,), True),
    FairnessCriterion.PREDICTIVE_EQUALITY:
        ("Predictive Equality", Category.SEPARATION, (MetricId.FPR,), True),
    FairnessCriterion.EQUALIZED_ODDS:
        ("Equalized Odds", Category.SEPARATION, (MetricId.FNR, MetricId.FPR), False),
    FairnessCriterion.BALANCE_POSITIVE:
        ("Balance for Positive Class", Category.SEPARATION, (MetricId.MEAN_SCORE_POS,), True),
    FairnessCriterion.BALANCE_NEGATIVE:
        ("Balance for Negative Class", Category.SEPARATION, (MetricId.MEAN_SCORE_NEG,), True),
    FairnessCriterion.PREDICTIVE_PARITY:
        ("Predictive Parity", Category.SUFFICIENCY, (MetricId.PPV,), True),
    FairnessCriterion.CONDITIONAL_USE_ACCURACY: (
        "Conditional Use Accuracy Equality", Category.SUFFICIENCY,
        (MetricId.PPV, MetricId.NPV), False,
    ),
    FairnessCriterion.WELL_CALIBRATION: ("Well Calibration", Category.SUFFICIENCY, (), False),
    FairnessCriterion.TEST_FAIRNESS: ("Test Fairness", Category.SUFFICIENCY, (), False),
    FairnessCriterion.BRIER_PARITY:
        ("Brier Score Parity", Category.OTHER, (MetricId.BRIER_SCORE,), True),
    FairnessCriterion.OVERALL_ACCURACY:
        ("Overall Accuracy Equality", Category.OTHER, (MetricId.ACCURACY,), True),
    FairnessCriterion.TREATMENT_EQUALITY:
        ("Treatment Equality", Category.OTHER, (MetricId.FN_FP_RATIO,), True),
}

CANONICAL_ORDER: tuple[FairnessCriterion, ...] = tuple(_CRITERIA)
CRITERION_LABELS: Mapping[FairnessCriterion, str] = {c: e[0] for c, e in _CRITERIA.items()}
CRITERION_CATEGORY: Mapping[FairnessCriterion, Category] = {c: e[1] for c, e in _CRITERIA.items()}
CRITERION_COMPONENTS: Mapping[FairnessCriterion, tuple[MetricId, ...]] = {
    c: e[2] for c, e in _CRITERIA.items()
}
DEFAULT_CRITERIA: tuple[FairnessCriterion, ...] = tuple(c for c, e in _CRITERIA.items() if e[3])


def coerce_criterion(criterion: FairnessCriterion | str) -> FairnessCriterion:
    try:
        return FairnessCriterion(criterion)
    except ValueError:
        raise InputError(f"unknown criterion: {criterion!r}") from None


def selected_criteria(
    criteria: Sequence[FairnessCriterion | str] | None, has_conditions: bool
) -> set[FairnessCriterion]:
    """The criteria an evaluation runs: the defaults when ``criteria`` is None.

    Any condition adds conditional statistical parity, which cannot run
    without one.
    """
    if criteria is None:
        selected = set(DEFAULT_CRITERIA)
    else:
        selected = {coerce_criterion(c) for c in criteria}
    if has_conditions:
        selected.add(FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY)
    elif FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY in selected:
        raise InputError("conditional statistical parity needs at least one condition")
    return selected


def criterion_components(criterion: FairnessCriterion | str) -> tuple[MetricId, ...]:
    """Per-group metrics a criterion compares; empty for calibration criteria."""
    return CRITERION_COMPONENTS[coerce_criterion(criterion)]


class RowStatus(Enum):
    EVALUATED = "evaluated"
    NOT_EVALUATED = "not_evaluated"
    ERROR = "error"


@dataclass(frozen=True)
class Comparison:
    """One criterion component compared between two groups.

    ``diff`` is value_a minus value_b; ``ratio`` is value_a over value_b,
    UNDEFINED when value_b is zero, either value is UNDEFINED or the
    quotient overflows a float. ``condition`` names the stratum for
    conditional rows. Rows that were not evaluated keep every value
    UNDEFINED.
    """

    criterion: FairnessCriterion
    metric: MetricId | None
    group_a: str
    group_b: str
    value_a: MetricValue = UNDEFINED
    value_b: MetricValue = UNDEFINED
    diff: MetricValue = UNDEFINED
    ratio: MetricValue = UNDEFINED
    ci_diff: Interval | None = None
    ci_ratio: Interval | None = None
    condition: str | None = None
    status: RowStatus = RowStatus.EVALUATED
    notes: tuple[str, ...] = ()

    @property
    def category(self) -> Category:
        return CRITERION_CATEGORY[self.criterion]


_NO_INTERVALS = PairIntervals(diff=None, ratio=None)

# Starts the pair note left when calibration criteria were asked for but
# no calibration comparison could be formed; the reason follows it.
CALIBRATION_SKIPPED = "calibration criteria skipped: "


def make_comparison(
    criterion: FairnessCriterion,
    metric: MetricId,
    group_a: str,
    group_b: str,
    value_a: MetricValue,
    value_b: MetricValue,
    condition: str | None = None,
    *,
    intervals: PairIntervals = _NO_INTERVALS,
) -> Comparison:
    """One comparison row; the intervals' notes follow the row's own."""
    notes: list[str] = []
    if is_defined(value_a) and is_defined(value_b):
        diff: MetricValue = value_a - value_b
        if value_b == 0.0:
            ratio: MetricValue = UNDEFINED
            notes.append("ratio undefined: reference value is 0")
        else:
            ratio = value_a / value_b
            if not math.isfinite(ratio):
                ratio = UNDEFINED
                notes.append("ratio undefined: overflows a float")
    else:
        diff = UNDEFINED
        ratio = UNDEFINED
        for label, value in ((group_a, value_a), (group_b, value_b)):
            if not is_defined(value):
                notes.append(f"{metric.value} undefined for group {label!r}")
    return Comparison(
        criterion=criterion,
        metric=metric,
        group_a=group_a,
        group_b=group_b,
        value_a=value_a,
        value_b=value_b,
        diff=diff,
        ratio=ratio,
        ci_diff=intervals.diff,
        ci_ratio=intervals.ratio,
        condition=condition,
        notes=tuple(notes) + intervals.notes,
    )


def _row(criterion, metric, dataset, a, b, condition=None, intervals=_NO_INTERVALS) -> Comparison:
    value_a, value_b = group_metric(dataset, a, metric), group_metric(dataset, b, metric)
    return make_comparison(criterion, metric, a, b, value_a, value_b, condition, intervals=intervals)


def compare(
    dataset: AuditDataset,
    criterion: FairnessCriterion | str,
    group_a: str,
    group_b: str,
) -> list[Comparison]:
    """Compare one criterion's components between two groups.

    Returns one row per component metric. Conditional statistical parity
    needs a condition, so its rows come from :func:`evaluate_all` with
    ``conditions``; calibration criteria compare curves, through
    :func:`compare_calibration`. Both are rejected here.
    """
    criterion = coerce_criterion(criterion)
    _check_pair(dataset, group_a, group_b)
    if criterion is FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY:
        raise InputError("conditional criterion needs a condition: use evaluate_all")
    components = CRITERION_COMPONENTS[criterion]
    if not components:
        raise InputError(f"{criterion.value} compares curves: use compare_calibration")
    return [_row(criterion, metric, dataset, group_a, group_b) for metric in components]


@dataclass(frozen=True)
class CalibrationComparison:
    """Binned calibration curves for two groups plus summary gaps.

    ``gap_a`` and ``gap_b`` measure within-group miscalibration: the
    largest absolute difference between a bin's observed outcome rate and
    its mean score, over that group's non-sparse bins. ``between_gap``
    is the largest absolute difference of observed rates over bins that
    are non-sparse in both groups.
    """

    curve_a: CalibrationCurve
    curve_b: CalibrationCurve
    gap_a: float
    gap_b: float
    between_gap: float


def compare_calibration(
    dataset: AuditDataset,
    group_a: str,
    group_b: str,
    bins: int = BINS_DEFAULT,
    *,
    min_bin_count: int = MIN_BIN_COUNT_DEFAULT,
) -> CalibrationComparison:
    """Compare score calibration between two groups on shared bins."""
    _check_pair(dataset, group_a, group_b)
    curve_a = calibration_curve(dataset, group_a, bins, min_bin_count=min_bin_count)
    curve_b = calibration_curve(dataset, group_b, bins, min_bin_count=min_bin_count)
    gaps = []
    for curve in (curve_a, curve_b):
        usable = ~curve.sparse
        if not usable.any():
            raise ComputationError(
                f"group {curve.group!r} has no score bin with at least {min_bin_count} records"
            )
        gaps.append(
            float(abs(curve.observed_rate[usable] - curve.mean_score[usable]).max())
        )
    shared = ~curve_a.sparse & ~curve_b.sparse
    if not shared.any():
        raise ComputationError(
            "no score bin is populated in both groups; use fewer bins or a lower min_bin_count"
        )
    between = float(abs(curve_a.observed_rate[shared] - curve_b.observed_rate[shared]).max())
    return CalibrationComparison(
        curve_a=curve_a,
        curve_b=curve_b,
        gap_a=gaps[0],
        gap_b=gaps[1],
        between_gap=between,
    )


@dataclass(frozen=True)
class FairnessReport:
    """All comparison rows for one group pair, plus shared context."""

    group_a: str
    group_b: str
    rows: tuple[Comparison, ...]
    calibration: CalibrationComparison | None = None
    notes: tuple[str, ...] = ()


def evaluate_all(
    dataset: AuditDataset,
    group_a: str,
    group_b: str,
    *,
    criteria: Sequence[FairnessCriterion | str] | None = None,
    conditions: Mapping[str, ConditionPredicate | str] | None = None,
    bootstrap: BootstrapConfig | None = None,
    bins: int = BINS_DEFAULT,
    min_bin_count: int = MIN_BIN_COUNT_DEFAULT,
) -> FairnessReport:
    """Evaluate many criteria for one group pair in canonical row order.

    The dataset must carry decisions. The rows follow one flat plan of
    (criterion, metric, stratum) triples in canonical order: the stratum
    is None for the whole dataset, and conditional statistical parity
    plans one triple per condition, whose stratum is filtered once. A
    condition that cannot form its stratum (say, it empties a group) gives
    an ERROR row, and a score metric gives a NOT_EVALUATED row when any
    record lacks a score; neither fails the audit. With a bootstrap
    config, each stratum runs one ``bootstrap_intervals`` call over the
    metrics evaluated in it, the whole dataset first, and every evaluated
    row is built once with its intervals. Each group's resamples are
    shared by every pair it joins. An interval that discards more
    resamples than the tolerance allows raises ComputationError naming
    the metric, the pair and, for a conditional row, the condition. A
    calibration comparison that cannot be formed (missing scores, or a
    group without a usable score bin) leaves ``calibration`` None and a
    ``CALIBRATION_SKIPPED`` pair note.
    """
    _check_pair(dataset, group_a, group_b)
    _require_decisions(dataset)
    conditions = dict(conditions or {})
    selected = selected_criteria(criteria, bool(conditions))
    scores_note = _missing_scores(dataset)
    unscored = SCORE_METRICS if scores_note else frozenset()

    # None names the whole dataset; a condition names its stratum, or the
    # InputError that kept the stratum from forming.
    strata: dict[str | None, AuditDataset | InputError] = {None: dataset}
    for name, predicate in conditions.items():
        try:
            strata[name] = filter_condition(dataset, predicate)
        except InputError as exc:
            strata[name] = exc

    conditional = FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY
    plan = [
        (criterion, metric, name)
        for criterion in CANONICAL_ORDER
        if criterion in selected
        for metric in CRITERION_COMPONENTS[criterion]
        for name in (conditions if criterion is conditional else (None,))
    ]

    intervals: dict[str | None, dict[MetricId, PairIntervals]] = {}
    if bootstrap is not None:
        for name, stratum in strata.items():
            metrics = {m for _, m, n in plan if n == name} - unscored
            if not metrics or isinstance(stratum, InputError):
                continue
            try:
                intervals[name] = bootstrap_intervals(
                    stratum, sorted(metrics, key=lambda m: m.value), group_a, group_b, bootstrap
                )
            except ComputationError as exc:
                if name is None:
                    raise
                raise ComputationError(f"condition {name!r}, {exc}") from None

    rows = []
    for criterion, metric, name in plan:
        stratum = strata[name]
        if isinstance(stratum, InputError):
            status, note = RowStatus.ERROR, str(stratum)
        elif metric in unscored:
            status, note = RowStatus.NOT_EVALUATED, scores_note
        else:
            pair = intervals[name][metric] if name in intervals else _NO_INTERVALS
            rows.append(_row(criterion, metric, stratum, group_a, group_b, name, pair))
            continue
        rows.append(
            Comparison(
                criterion, metric, group_a, group_b, condition=name, status=status, notes=(note,)
            )
        )

    report_notes: list[str] = []
    calibration = None
    if any(not CRITERION_COMPONENTS[c] for c in selected):
        if unscored:
            report_notes.append(f"{CALIBRATION_SKIPPED}{scores_note}")
        else:
            try:
                calibration = compare_calibration(
                    dataset, group_a, group_b, bins, min_bin_count=min_bin_count
                )
            except ComputationError as exc:
                report_notes.append(f"{CALIBRATION_SKIPPED}{exc}")

    return FairnessReport(
        group_a=group_a,
        group_b=group_b,
        rows=tuple(rows),
        calibration=calibration,
        notes=tuple(report_notes),
    )
