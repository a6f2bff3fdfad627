"""Stratified bootstrap confidence intervals for metric gaps.

Resampling draws records with replacement within each group, keeping
group sizes fixed. Every (seed, iteration, group label) triple addresses
its own random substream, so replicates are a pure function of the data
order and those three values: reruns reproduce bit for bit, and a
group's replicates are the same in every pair it joins.

Intervals are normal-approximation (Wald): the difference interval uses
the standard deviation of resampled differences; the ratio interval is
built on the log scale and exponentiated. Iterations where a statistic
is undefined (or non-positive, for ratios) are discarded; more than
``degenerate_tolerance`` of them is an error.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

from .dataset import AuditDataset
from .errors import ComputationError, InputError
from .metrics import (
    CONFUSION_METRICS,
    MetricId,
    _confusion_from_arrays,
    _group_arrays,
    coerce_metric,
    compute_metric,
    group_metric,
    is_defined,
    metric_from_counts,
)


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling parameters.

    ``degenerate_tolerance`` caps the fraction of iterations an interval
    may discard for undefined statistics before the computation fails.
    """

    iterations: int = 1000
    alpha: float = 0.05
    seed: int = 0
    degenerate_tolerance: float = 0.01

    def __post_init__(self) -> None:
        if self.iterations < 2:
            raise InputError("bootstrap needs at least 2 iterations")
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha outside (0, 1)")
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if not 0.0 <= self.degenerate_tolerance <= 1.0:
            raise InputError("degenerate_tolerance outside [0, 1]")

    @property
    def z(self) -> float:
        return NormalDist().inv_cdf(1.0 - self.alpha / 2.0)


class IntervalMethod(Enum):
    WALD_DIFF = "wald_diff"
    WALD_LOG_RATIO = "wald_log_ratio"


@dataclass(frozen=True)
class Interval:
    """Two-sided confidence interval with its construction method.

    ``discarded`` counts bootstrap iterations dropped because the
    statistic was undefined there.
    """

    lower: float
    upper: float
    method: IntervalMethod
    discarded: int = 0

    def __post_init__(self) -> None:
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise ComputationError("interval bounds are NaN")
        if self.lower > self.upper:
            raise ComputationError("interval lower bound exceeds upper bound")
        if self.discarded < 0:
            raise InputError("discarded count must be non-negative")

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def _group_key(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _substream(seed: int, iteration: int, label: str) -> np.random.Generator:
    sequence = np.random.SeedSequence([seed, iteration, _group_key(label)])
    return np.random.Generator(np.random.PCG64(sequence))


def resample_within_groups(
    dataset: AuditDataset, seed: int = 0, iteration: int = 0
) -> AuditDataset:
    """One stratified resample: per-group draws with replacement.

    Group sizes are preserved exactly. The rows drawn for a group depend
    only on (seed, iteration, label) and the group's record order.
    """
    if seed < 0 or iteration < 0:
        raise InputError("seed and iteration must be non-negative")
    parts = []
    for label in dataset.groups:
        rows = dataset.group_positions(label)
        draw = _substream(seed, iteration, label).integers(0, rows.shape[0], rows.shape[0])
        parts.append(rows[draw])
    return dataset.take(np.concatenate(parts))


@dataclass(frozen=True)
class BootstrapReplicates:
    """Per-iteration metric values for two groups; NaN marks undefined."""

    metrics: tuple[MetricId, ...]
    group_a: str
    group_b: str
    values_a: np.ndarray
    values_b: np.ndarray


def _group_replicates(
    dataset: AuditDataset, label: str, metrics: tuple[MetricId, ...], config: BootstrapConfig
) -> np.ndarray:
    """Metric values on each of one group's resamples (B x metrics, NaN = undefined)."""
    outcome, score, decision = _group_arrays(dataset, label, metrics)
    size = outcome.shape[0]
    need_counts = any(m in CONFUSION_METRICS for m in metrics)
    values = np.empty((config.iterations, len(metrics)), dtype=np.float64)
    for iteration, out in enumerate(values):
        draw = _substream(config.seed, iteration, label).integers(0, size, size)
        drawn_outcome = outcome[draw]
        drawn_score = score[draw] if score is not None else None
        drawn_decision = decision[draw] if decision is not None else None
        counts = _confusion_from_arrays(drawn_outcome, drawn_decision) if need_counts else None
        for j, metric in enumerate(metrics):
            if metric in CONFUSION_METRICS:
                value = metric_from_counts(metric, counts)
            else:
                value = compute_metric(metric, drawn_outcome, drawn_score, drawn_decision)
            out[j] = value if is_defined(value) else math.nan
    return values


def bootstrap_replicates(
    dataset: AuditDataset,
    metrics,
    group_a: str,
    group_b: str,
    config: BootstrapConfig,
) -> BootstrapReplicates:
    """Evaluate metrics on every stratified resample of a group pair.

    All requested metrics share one draw per (iteration, group), so adding
    a metric never changes the resamples of the others, and each group's
    replicates depend only on that group, never on the pair it joins.
    """
    metric_tuple = tuple(dict.fromkeys(coerce_metric(m) for m in metrics))
    if not metric_tuple:
        raise InputError("no metrics requested")
    if group_a == group_b:
        raise InputError("group pair must name two distinct groups")
    return BootstrapReplicates(
        metrics=metric_tuple,
        group_a=group_a,
        group_b=group_b,
        values_a=_group_replicates(dataset, group_a, metric_tuple, config),
        values_b=_group_replicates(dataset, group_b, metric_tuple, config),
    )


def _check_discarded(kept: np.ndarray, config: BootstrapConfig, what: str) -> int:
    B = kept.shape[0]
    discarded = int(B - kept.sum())
    if discarded > config.degenerate_tolerance * B:
        raise ComputationError(
            f"bootstrap discarded {discarded} of {B} iterations for the {what}; "
            f"tolerance is {config.degenerate_tolerance:g}"
        )
    if B - discarded < 2:
        raise ComputationError(f"fewer than 2 usable bootstrap iterations for the {what}")
    return discarded


def _diff_interval(
    va: np.ndarray, vb: np.ndarray, point_a: float, point_b: float, config: BootstrapConfig
) -> Interval:
    kept = np.isfinite(va) & np.isfinite(vb)
    discarded = _check_discarded(kept, config, "difference")
    se = float(np.std(va[kept] - vb[kept], ddof=1))
    center = point_a - point_b
    margin = config.z * se
    return Interval(center - margin, center + margin, IntervalMethod.WALD_DIFF, discarded)


def _ratio_interval(
    va: np.ndarray, vb: np.ndarray, point_a: float, point_b: float, config: BootstrapConfig
) -> Interval:
    with np.errstate(invalid="ignore"):
        kept = np.isfinite(va) & np.isfinite(vb) & (va > 0.0) & (vb > 0.0)
    discarded = _check_discarded(kept, config, "ratio")
    log_ratios = np.log(va[kept]) - np.log(vb[kept])
    se = float(np.std(log_ratios, ddof=1))
    center = math.log(point_a) - math.log(point_b)
    margin = config.z * se
    return Interval(
        math.exp(center - margin),
        math.exp(center + margin),
        IntervalMethod.WALD_LOG_RATIO,
        discarded,
    )


def _points(
    dataset: AuditDataset, metric: MetricId, group_a: str, group_b: str
) -> tuple[object, object]:
    return (
        group_metric(dataset, group_a, metric),
        group_metric(dataset, group_b, metric),
    )


def ci_diff(
    dataset: AuditDataset,
    metric,
    group_a: str,
    group_b: str,
    config: BootstrapConfig | None = None,
) -> Interval:
    """Wald interval for the between-group difference of one metric."""
    config = config or BootstrapConfig()
    metric = coerce_metric(metric)
    point_a, point_b = _points(dataset, metric, group_a, group_b)
    if not is_defined(point_a) or not is_defined(point_b):
        raise InputError(f"point estimate of {metric.value} is undefined")
    replicates = bootstrap_replicates(dataset, (metric,), group_a, group_b, config)
    return _diff_interval(
        replicates.values_a[:, 0], replicates.values_b[:, 0], point_a, point_b, config
    )


def ci_ratio(
    dataset: AuditDataset,
    metric,
    group_a: str,
    group_b: str,
    config: BootstrapConfig | None = None,
) -> Interval:
    """Wald interval for the between-group ratio, built on the log scale."""
    config = config or BootstrapConfig()
    metric = coerce_metric(metric)
    point_a, point_b = _points(dataset, metric, group_a, group_b)
    if not is_defined(point_a) or not is_defined(point_b):
        raise InputError(f"point estimate of {metric.value} is undefined")
    if point_a <= 0.0 or point_b <= 0.0:
        raise InputError(
            f"ratio interval for {metric.value} needs strictly positive point estimates"
        )
    replicates = bootstrap_replicates(dataset, (metric,), group_a, group_b, config)
    return _ratio_interval(
        replicates.values_a[:, 0], replicates.values_b[:, 0], point_a, point_b, config
    )


@dataclass(frozen=True)
class PairIntervals:
    """Difference and ratio intervals for one metric over a group pair.

    Either interval is None when its preconditions fail (undefined or
    non-positive point estimates); ``notes`` says which and why.
    """

    diff: Interval | None
    ratio: Interval | None
    notes: tuple[str, ...] = ()


def bootstrap_intervals(
    dataset: AuditDataset,
    metrics,
    group_a: str,
    group_b: str,
    config: BootstrapConfig | None = None,
) -> dict[MetricId, PairIntervals]:
    """Difference and ratio intervals for several metrics in one pass.

    All metrics share the same resamples. Precondition failures are
    reported per metric in notes rather than raised; exceeding the
    discard tolerance still raises.
    """
    config = config or BootstrapConfig()
    replicates = bootstrap_replicates(dataset, metrics, group_a, group_b, config)
    out: dict[MetricId, PairIntervals] = {}
    for j, metric in enumerate(replicates.metrics):
        point_a, point_b = _points(dataset, metric, group_a, group_b)
        va = replicates.values_a[:, j]
        vb = replicates.values_b[:, j]
        notes: list[str] = []
        diff = ratio = None
        if is_defined(point_a) and is_defined(point_b):
            diff = _diff_interval(va, vb, point_a, point_b, config)
            if point_a > 0.0 and point_b > 0.0:
                ratio = _ratio_interval(va, vb, point_a, point_b, config)
            else:
                notes.append("ratio interval skipped: needs strictly positive values")
        else:
            notes.append("intervals skipped: point estimate undefined")
        out[metric] = PairIntervals(diff=diff, ratio=ratio, notes=tuple(notes))
    return out
