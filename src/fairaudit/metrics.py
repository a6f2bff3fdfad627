"""Per-group confusion counts, classification metrics, and calibration.

Every metric is a ratio of two per-group sums (n, Σy, Σd, Σyd, the score
sums over positive and over negative outcomes, Σ(s−y)² and Σ|s−y|), for
point estimates and bootstrap replicates alike. A group is laid out once
per dataset as its four cells (cell code 2y + d: TN, FP, FN, TP): the
record :func:`_cells` keeps under the memo key ``("cells", label)`` holds
the group's rows sorted by cell, the cell sizes, and whether every record
has a decision and a score. The metric table, bootstrap replicates and
resamples, and the chi-square table all read it. Every point estimate is
a lookup in the dataset's metric table (:func:`_metric_table`, memo key
``("metrics",)``), whose sums every group gets in one pass. The float
terms s, (s−y)² and |s−y| are rebuilt from the sorted rows whenever score
sums are formed, never kept: the table sums all three, a group's bootstrap
replicates only those their metrics read, and the replicate memo key names
them. Which term each score metric reads is one table, ``_SCORE_TERMS``;
``SCORE_METRICS``, ``DECISION_METRICS`` and the terms a request reads are
derived from it. A sums row, one group's records counted once or one
resample, comes from its cell counts and each term's sum over each cell's
records, through one :func:`_sums_rows`. A zero denominator gives the
UNDEFINED sentinel, never an exception; callers decide how to surface that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

import numpy as np

from .dataset import AuditDataset, _missing_scores, _require_decisions
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


# The one table of score metrics: each maps to the float term its sums
# read (s, (s−y)² or |s−y|). Every other metric but the prevalence reads
# decisions. To add a score metric, add it here.
_SCORE_TERMS = {
    MetricId.MEAN_SCORE_POS: "s",
    MetricId.MEAN_SCORE_NEG: "s",
    MetricId.BRIER_SCORE: "sq_err",
    MetricId.MEAN_ABSOLUTE_ERROR: "abs_err",
}
SCORE_METRICS = frozenset(_SCORE_TERMS)
DECISION_METRICS = frozenset(set(MetricId) - SCORE_METRICS - {MetricId.PREVALENCE})


def coerce_metric(metric: MetricId | str) -> MetricId:
    try:
        return MetricId(metric)
    except ValueError:
        raise InputError(f"unknown metric: {metric!r}") from None


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


# Column order of a per-group sums row.
_N, _Y, _D, _YD, _S_POS, _S_NEG, _SQ_ERR, _ABS_ERR = range(8)
_SUM_COLUMNS = 8
_CELLS = 4


class _Cells(NamedTuple):
    """One group's records laid out by cell, cell code 2y + d (TN, FP, FN, TP)."""

    rows: np.ndarray  # the group's rows sorted by cell, in record order within a cell
    sizes: np.ndarray  # the four cell sizes; cells 1 and 3 stay empty when not decided
    decided: bool  # every record has a decision, so the cells are cut by decision
    scored: bool  # every record has a score


def _cells(dataset: AuditDataset, label: str) -> _Cells:
    """One group's cells, built once per dataset and group.

    A group's cells, and so the resamples drawn over them, never depend on
    the metrics asked for.
    """
    key = ("cells", label)
    cells = dataset._memo.get(key)
    if cells is None:
        rows = dataset.group_positions(label)
        code = 2 * dataset.outcome[rows]
        decision = None if dataset.decision is None else dataset.decision[rows]
        decided = decision is not None and not (decision < 0).any()
        if decided:
            code += decision
        scored = dataset.score is not None and not np.isnan(dataset.score[rows]).any()
        sizes = np.bincount(code, minlength=_CELLS)
        rows = rows[np.argsort(code, kind="stable")]
        for kept in (rows, sizes):
            kept.setflags(write=False)
        cells = dataset._memo[key] = _Cells(rows, sizes, decided, scored)
    return cells


def _checked_cells(dataset: AuditDataset, label: str, metrics: Iterable[MetricId]) -> _Cells:
    """A group's cells, once the columns these metrics need are bound and set in the group."""
    cells = _cells(dataset, label)
    if not (cells.scored or SCORE_METRICS.isdisjoint(metrics)):
        if dataset.score is None:
            raise InputError(_missing_scores(dataset))
        raise InputError(f"group {label!r} has records without scores")
    if not (cells.decided or DECISION_METRICS.isdisjoint(metrics)):
        if dataset.decision is None:
            _require_decisions(dataset)  # raises, saying no decision column is bound
        raise InputError(f"group {label!r} has records without decisions")
    return cells


def _check_pair(dataset: AuditDataset, group_a: str, group_b: str) -> None:
    """Refuse a group pair that names an unknown group, or one group twice."""
    for label in (group_a, group_b):
        dataset.group_positions(label)  # raises on an unknown label
    if group_a == group_b:
        raise InputError("group pair must name two distinct groups")


# The float terms score sums are built from.
_TERMS = tuple(dict.fromkeys(_SCORE_TERMS.values()))


def _terms(metrics: tuple[MetricId, ...]) -> tuple[str, ...]:
    """The float terms these metrics read, in ``_TERMS`` order."""
    read = {_SCORE_TERMS.get(m) for m in metrics}
    return tuple(term for term in _TERMS if term in read)


def _floats(dataset: AuditDataset, rows: np.ndarray, terms: tuple[str, ...]) -> np.ndarray:
    """The (len(terms), len(rows)) float rows of scored records, one per term."""
    s = dataset.score[rows]
    err = s - dataset.outcome[rows]
    floats = {"s": s, "sq_err": err * err, "abs_err": np.abs(err)}
    return np.array([floats[term] for term in terms])


def _sums_rows(counts, cell_sums, terms: tuple[str, ...], decided, scored) -> np.ndarray:
    """Sums rows (b, k) from b rows of (b, 4) cell counts and ``cell_sums``.

    A row is a group's records counted once, or one resample. ``cell_sums``
    (len(terms), 4, b) holds the sum of each term over each cell's records
    in each row. Cells are added by outcome in one fixed order, so the
    point sums and every replicate are built alike. Counts are exact.
    ``decided`` and ``scored`` are one flag, or one per row: the decision
    columns where ``decided`` is False, the score columns where ``scored``
    is False, and the columns of an unrequested term are NaN.
    """
    sums = np.full((counts.shape[0], _SUM_COLUMNS), np.nan)
    sums[:, _N] = counts.sum(axis=1)
    sums[:, _Y] = counts[:, 2] + counts[:, 3]
    sums[:, _D] = np.where(decided, counts[:, 1] + counts[:, 3], np.nan)
    sums[:, _YD] = np.where(decided, counts[:, 3], np.nan)
    # cells 0 and 1 hold y = 0, cells 2 and 3 hold y = 1
    negative = np.where(scored, cell_sums[:, 0] + cell_sums[:, 1], np.nan)
    positive = np.where(scored, cell_sums[:, 2] + cell_sums[:, 3], np.nan)
    for term, neg, pos in zip(terms, negative, positive):
        if term == "s":
            sums[:, _S_POS], sums[:, _S_NEG] = pos, neg
        else:
            sums[:, _SQ_ERR if term == "sq_err" else _ABS_ERR] = neg + pos
    return sums


def _metric_values(sums: np.ndarray, metrics: tuple[MetricId, ...]) -> np.ndarray:
    """Metric values from sums rows: (k,) -> (m,), (B, k) -> (B, m); NaN on a zero denominator."""
    n, y, d, yd, s_pos, s_neg, sq_err, abs_err = sums.T
    fp, fn = d - yd, y - yd
    tn = n - y - fp
    ratios = {
        MetricId.TPR: (yd, y),
        MetricId.TNR: (tn, n - y),
        MetricId.FPR: (fp, n - y),
        MetricId.FNR: (fn, y),
        MetricId.PPV: (yd, d),
        MetricId.NPV: (tn, n - d),
        MetricId.ACCURACY: (yd + tn, n),
        MetricId.BRIER_SCORE: (sq_err, n),
        MetricId.MEAN_ABSOLUTE_ERROR: (abs_err, n),
        MetricId.POSITIVE_RATE: (d, n),
        MetricId.PREVALENCE: (y, n),
        MetricId.MEAN_SCORE_POS: (s_pos, y),
        MetricId.MEAN_SCORE_NEG: (s_neg, n - y),
        MetricId.FN_FP_RATIO: (fn, fp),
    }
    values = np.full(sums.shape[:-1] + (len(metrics),), np.nan)
    for j, metric in enumerate(metrics):
        numerator, denominator = ratios[metric]
        np.divide(numerator, denominator, out=values[..., j], where=denominator != 0)
    return values


def _as_metric_value(value: float) -> MetricValue:
    return UNDEFINED if math.isnan(value) else float(value)


# Column of each metric in a metric-table row.
_COLUMN = {metric: j for j, metric in enumerate(MetricId)}


def _metric_table(dataset: AuditDataset) -> dict[str, np.ndarray]:
    """Every metric of every group from one evaluation of the stacked point sums.

    One read-only row per sorted label, built once per dataset; NaN where
    a denominator is zero or a group's cells lack the metric's column. The
    groups' cell-sorted rows, laid end to end, make each (group, cell) one
    segment, summed on its own by one ``np.add.reduceat``.
    """
    table = dataset._memo.get(("metrics",))
    if table is None:
        cells = [_cells(dataset, label) for label in dataset.groups]
        counts = np.array([c.sizes for c in cells])
        terms = _TERMS if dataset.score is not None else ()
        cell_sums = np.zeros((len(terms), len(cells), _CELLS))
        if terms:
            nonempty = np.flatnonzero(counts)
            starts = (np.cumsum(counts) - counts.ravel())[nonempty]
            floats = _floats(dataset, np.concatenate([c.rows for c in cells]), terms)
            cell_sums.reshape(len(terms), -1)[:, nonempty] = np.add.reduceat(floats, starts, axis=1)
        decided, scored = [c.decided for c in cells], [c.scored for c in cells]
        sums = _sums_rows(counts, cell_sums.transpose(0, 2, 1), terms, decided, scored)
        values = _metric_values(sums, tuple(MetricId))
        values.setflags(write=False)
        table = dataset._memo[("metrics",)] = dict(zip(dataset.groups, values))
    return table


def group_metric(dataset: AuditDataset, group: str, metric: MetricId | str) -> MetricValue:
    """One metric for one group; UNDEFINED on a zero denominator."""
    metric = coerce_metric(metric)
    _checked_cells(dataset, group, (metric,))
    return _as_metric_value(_metric_table(dataset)[group][_COLUMN[metric]])


# Calibration defaults, shared by the library and the CLI flags.
BINS_DEFAULT = 10
MIN_BIN_COUNT_DEFAULT = 10


def checked_bins(bins: int, min_bin_count: int) -> int:
    """The calibration bin count; it must lie in [2, 10**4], and ``min_bin_count`` be at least 1."""
    if bins < 2:
        raise InputError("bins must be at least 2")
    if bins > 10**4:
        raise InputError("bins must be at most 10000")
    if min_bin_count < 1:
        raise InputError("min_bin_count must be at least 1")
    return bins


def calibration_curve(
    dataset: AuditDataset,
    group: str,
    bins: int = BINS_DEFAULT,
    *,
    min_bin_count: int = MIN_BIN_COUNT_DEFAULT,
) -> CalibrationCurve:
    """Bin one group's scores into equal-width bins over [0, 1].

    Every record of the group needs a score, checked as for a score metric.
    A score on an interior edge lands in the lower bin and 0 in the first;
    counts sum to the group size. Curves are kept, read-only, in the dataset's memo.
    """
    checked_bins(bins, min_bin_count)
    key = ("calibration", group, bins, min_bin_count)
    if key in dataset._memo:
        return dataset._memo[key]
    _checked_cells(dataset, group, SCORE_METRICS)
    rows = dataset.group_positions(group)
    score, outcome = dataset.score[rows], dataset.outcome[rows]

    edges = np.linspace(0.0, 1.0, bins + 1)
    # score * bins, rounded up, is at most one bin off, and never past the last bin
    # for a score in [0, 1]; each edge test moves it back
    index = np.maximum(np.ceil(score * bins).astype(np.intp) - 1, 0)
    index -= (score <= edges[index]) & (index > 0)
    index += score > edges[index + 1]
    counts = np.bincount(index, minlength=bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_score = np.bincount(index, weights=score, minlength=bins) / counts
        observed = np.bincount(index, weights=outcome.astype(np.float64), minlength=bins) / counts
    sparse = counts < min_bin_count
    for array in (edges, counts, mean_score, observed, sparse):
        array.setflags(write=False)
    curve = dataset._memo[key] = CalibrationCurve(group, edges, counts, mean_score, observed, sparse)
    return curve
