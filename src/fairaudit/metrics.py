"""Per-group confusion counts, classification metrics, and calibration.

Metrics with a zero denominator evaluate to the UNDEFINED sentinel, never
to an exception; callers decide how to surface that.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .dataset import AuditDataset
from .errors import InputError


class _Undefined:
    _instance = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()
"""Singleton returned by metrics whose denominator is zero."""

MetricValue = float | _Undefined


def is_defined(value: object) -> bool:
    return value is not UNDEFINED


class MetricId(Enum):
    """Identifier for every per-group metric the auditor can compute."""

    TPR = "tpr"
    TNR = "tnr"
    FPR = "fpr"
    FNR = "fnr"
    PPV = "ppv"
    NPV = "npv"
    ACCURACY = "accuracy"
    BRIER_SCORE = "brier_score"
    MEAN_ABSOLUTE_ERROR = "mean_absolute_error"
    POSITIVE_RATE = "positive_rate"
    PREVALENCE = "prevalence"
    MEAN_SCORE_POS = "mean_score_pos"
    MEAN_SCORE_NEG = "mean_score_neg"
    FN_FP_RATIO = "fn_fp_ratio"


SCORE_METRICS = frozenset(
    {
        MetricId.BRIER_SCORE,
        MetricId.MEAN_ABSOLUTE_ERROR,
        MetricId.MEAN_SCORE_POS,
        MetricId.MEAN_SCORE_NEG,
    }
)

DECISION_METRICS = frozenset(
    {
        MetricId.TPR,
        MetricId.TNR,
        MetricId.FPR,
        MetricId.FNR,
        MetricId.PPV,
        MetricId.NPV,
        MetricId.ACCURACY,
        MetricId.POSITIVE_RATE,
        MetricId.FN_FP_RATIO,
    }
)

# Metrics rendered as percentages in human-readable output; the count
# ratio keeps its natural scale.
PERCENT_METRICS = frozenset(set(MetricId) - {MetricId.FN_FP_RATIO})


def coerce_metric(metric: MetricId | str) -> MetricId:
    if isinstance(metric, MetricId):
        return metric
    try:
        return MetricId(metric)
    except ValueError:
        raise InputError(f"unknown metric: {metric!r}") from None


@dataclass(frozen=True)
class ConfusionCounts:
    """2x2 confusion table for one group (positive decision vs outcome)."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class GroupMetrics:
    """Every metric the dataset's columns allow, for one group."""

    group: str
    n: int
    values: Mapping[MetricId, MetricValue]


@dataclass(frozen=True)
class CalibrationCurve:
    """Equal-width score bins with counts, mean scores, and observed rates.

    Bins are right-closed except the first. Empty bins carry NaN in
    ``mean_score`` and ``observed_rate``. ``sparse`` flags bins with
    fewer records than the requested minimum.
    """

    group: str
    edges: np.ndarray
    counts: np.ndarray
    mean_score: np.ndarray
    observed_rate: np.ndarray
    sparse: np.ndarray

    @property
    def bins(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def _confusion_from_arrays(outcome: np.ndarray, decision: np.ndarray) -> ConfusionCounts:
    codes = (outcome.astype(np.int8) << 1) | decision.astype(np.int8)
    c = np.bincount(codes, minlength=4)
    return ConfusionCounts(tp=int(c[3]), fp=int(c[1]), tn=int(c[0]), fn=int(c[2]))


def _ratio(numerator: float, denominator: float) -> MetricValue:
    if denominator == 0:
        return UNDEFINED
    return numerator / denominator


CONFUSION_METRICS = frozenset(DECISION_METRICS - {MetricId.POSITIVE_RATE})


def metric_from_counts(metric: MetricId, counts: ConfusionCounts) -> MetricValue:
    """Evaluate a confusion-derived metric; UNDEFINED on zero denominator."""
    if metric is MetricId.TPR:
        return _ratio(counts.tp, counts.tp + counts.fn)
    if metric is MetricId.TNR:
        return _ratio(counts.tn, counts.tn + counts.fp)
    if metric is MetricId.FPR:
        return _ratio(counts.fp, counts.fp + counts.tn)
    if metric is MetricId.FNR:
        return _ratio(counts.fn, counts.tp + counts.fn)
    if metric is MetricId.PPV:
        return _ratio(counts.tp, counts.tp + counts.fp)
    if metric is MetricId.NPV:
        return _ratio(counts.tn, counts.tn + counts.fn)
    if metric is MetricId.ACCURACY:
        return _ratio(counts.tp + counts.tn, counts.n)
    if metric is MetricId.FN_FP_RATIO:
        return _ratio(counts.fn, counts.fp)
    raise InputError(f"metric {metric.value} is not derived from confusion counts")


def compute_metric(
    metric: MetricId,
    outcome: np.ndarray,
    score: np.ndarray | None,
    decision: np.ndarray | None,
) -> MetricValue:
    """Evaluate one metric on raw group arrays.

    This is the single arithmetic path: the public per-group accessors and
    the bootstrap resampler both call it, so point estimates and resampled
    statistics can never disagree on a formula. Capability checks (is a
    score column present at all) happen in ``_group_arrays``.
    """
    if metric is MetricId.PREVALENCE:
        return float(outcome.mean())
    if metric in SCORE_METRICS:
        assert score is not None
        if metric is MetricId.BRIER_SCORE:
            return float(np.mean((score - outcome) ** 2))
        if metric is MetricId.MEAN_ABSOLUTE_ERROR:
            return float(np.mean(np.abs(score - outcome)))
        selected = score[outcome == 1] if metric is MetricId.MEAN_SCORE_POS else score[outcome == 0]
        if selected.shape[0] == 0:
            return UNDEFINED
        return float(selected.mean())
    assert decision is not None
    if metric is MetricId.POSITIVE_RATE:
        return float(decision.mean())
    if metric in CONFUSION_METRICS:
        return metric_from_counts(metric, _confusion_from_arrays(outcome, decision))
    raise InputError(f"unknown metric: {metric!r}")


def _group_arrays(
    dataset: AuditDataset, group: str, metrics: tuple[MetricId, ...]
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One group's outcome, score and decision columns for these metrics.

    The score (decision) slice is None unless some metric needs it; a
    needed column that is unbound or has unset cells in the group raises.
    """
    rows = dataset.group_positions(group)
    outcome = dataset.outcome[rows]
    score = decision = None
    needs_score = [m for m in metrics if m in SCORE_METRICS]
    if needs_score:
        if dataset.score is None:
            raise InputError(f"metric {needs_score[0].value} needs risk scores, none loaded")
        score = dataset.score[rows]
        if np.isnan(score).any():
            raise InputError(f"group {group!r} has records without scores")
    needs_decision = [m for m in metrics if m in DECISION_METRICS]
    if needs_decision:
        if dataset.decision is None:
            raise InputError(
                f"metric {needs_decision[0].value} needs decisions; apply a threshold or bind a decision column"
            )
        decision = dataset.decision[rows]
        if (decision < 0).any():
            raise InputError(f"group {group!r} has records without decisions")
    return outcome, score, decision


def group_metric(dataset: AuditDataset, group: str, metric: MetricId | str) -> MetricValue:
    """One metric for one group; UNDEFINED on a zero denominator."""
    metric = coerce_metric(metric)
    outcome, score, decision = _group_arrays(dataset, group, (metric,))
    return compute_metric(metric, outcome, score, decision)


def group_confusion(dataset: AuditDataset, group: str) -> ConfusionCounts:
    """Confusion table for one group of a thresholded dataset."""
    outcome, _, decision = _group_arrays(dataset, group, (MetricId.ACCURACY,))
    return _confusion_from_arrays(outcome, decision)


def group_metrics(dataset: AuditDataset, group: str) -> GroupMetrics:
    """Every metric the dataset's columns support, for one group."""
    rows = dataset.group_positions(group)
    values: dict[MetricId, MetricValue] = {}
    for metric in MetricId:
        try:
            values[metric] = group_metric(dataset, group, metric)
        except InputError:
            continue
    return GroupMetrics(group=group, n=int(rows.shape[0]), values=values)


def calibration_curve(
    dataset: AuditDataset,
    group: str,
    bins: int = 10,
    *,
    min_bin_count: int = 10,
) -> CalibrationCurve:
    """Bin one group's scores into equal-width bins over [0, 1].

    A score equal to an interior edge lands in the lower bin; 0 lands in
    the first bin. Bin counts always sum to the group size.
    """
    if bins < 2:
        raise InputError("bins must be at least 2")
    if min_bin_count < 1:
        raise InputError("min_bin_count must be at least 1")
    rows = dataset.group_positions(group)
    if dataset.score is None:
        raise InputError("calibration needs risk scores, none loaded")
    score = dataset.score[rows]
    if np.isnan(score).any():
        raise InputError(f"group {group!r} has records without scores")
    outcome = dataset.outcome[rows]

    edges = np.linspace(0.0, 1.0, bins + 1)
    index = np.searchsorted(edges, score, side="left") - 1
    index = np.clip(index, 0, bins - 1)
    counts = np.bincount(index, minlength=bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_score = np.bincount(index, weights=score, minlength=bins) / counts
        observed = np.bincount(index, weights=outcome.astype(np.float64), minlength=bins) / counts
    return CalibrationCurve(
        group=group,
        edges=edges,
        counts=counts,
        mean_score=mean_score,
        observed_rate=observed,
        sparse=counts < min_bin_count,
    )
