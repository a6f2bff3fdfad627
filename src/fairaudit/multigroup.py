"""Summaries of a metric's spread across three or more groups.

Pairwise comparisons stop scaling once there are many groups; these
meta-metrics collapse a vector of per-group values into one number.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError
from .metrics import MetricId, is_defined


class MetaMetricKind(Enum):
    MAX_MIN_DIFF = "max_min_diff"
    MAX_MIN_RATIO = "max_min_ratio"
    MAX_ABS_DIFF = "max_abs_diff"
    MEAN_ABS_DEV = "mean_abs_dev"
    VARIANCE = "variance"
    GENERALIZED_ENTROPY = "generalized_entropy"


# Kinds whose formulas divide by group values or take logs of them.
POSITIVE_ONLY_KINDS = frozenset(
    {MetaMetricKind.MAX_MIN_RATIO, MetaMetricKind.GENERALIZED_ENTROPY}
)

GEI_DEFAULT_EXPONENT = 2.0


@dataclass(frozen=True)
class MetaMetricResult:
    """One meta-metric over a vector of per-group values."""

    kind: MetaMetricKind
    value: float
    group_values: tuple[float, ...]
    metric: MetricId | None = None
    groups: tuple[str, ...] | None = None
    exponent: float | None = None


def coerce_kind(kind: MetaMetricKind | str) -> MetaMetricKind:
    if isinstance(kind, MetaMetricKind):
        return kind
    try:
        return MetaMetricKind(kind)
    except ValueError:
        raise InputError(f"unknown meta-metric kind: {kind!r}") from None


def meta(
    values: Sequence[float] | Mapping[str, float],
    kind: MetaMetricKind | str,
    *,
    exponent: float | None = None,
    metric: MetricId | None = None,
) -> MetaMetricResult:
    """Collapse per-group metric values into one spread summary.

    Accepts a sequence of values or a mapping from group label to value.
    All values must be defined; ratio and entropy kinds additionally need
    them strictly positive. The generalized entropy exponent must be
    finite and avoid 0 and 1, where the formula degenerates; it defaults
    to 2.

    Identical inputs yield exactly 0 (exactly 1 for the ratio kind).
    """
    kind = coerce_kind(kind)
    groups: tuple[str, ...] | None = None
    if isinstance(values, Mapping):
        groups = tuple(values.keys())
        values = list(values.values())
    cleaned = []
    for value in values:
        if not is_defined(value) or value is None:
            raise InputError("meta-metrics need every group value defined")
        value = float(value)
        if np.isnan(value):
            raise InputError("meta-metrics need every group value defined")
        cleaned.append(value)
    if len(cleaned) < 2:
        raise InputError("meta-metrics need at least 2 group values")
    array = np.array(cleaned, dtype=np.float64)

    if kind in POSITIVE_ONLY_KINDS and (array <= 0.0).any():
        raise InputError(f"{kind.value} needs strictly positive group values")

    if kind is MetaMetricKind.GENERALIZED_ENTROPY:
        if exponent is None:
            exponent = GEI_DEFAULT_EXPONENT
        if not np.isfinite(exponent):
            raise InputError("generalized entropy exponent must be finite")
        if exponent in (0.0, 1.0):
            raise InputError("generalized entropy exponent must avoid 0 and 1")
    elif exponent is not None:
        raise InputError(f"{kind.value} takes no exponent")

    if np.all(array == array[0]):
        value = 1.0 if kind is MetaMetricKind.MAX_MIN_RATIO else 0.0
        return MetaMetricResult(
            kind=kind,
            value=value,
            group_values=tuple(cleaned),
            metric=metric,
            groups=groups,
            exponent=exponent,
        )

    if kind is MetaMetricKind.MAX_MIN_DIFF:
        value = float(array.max() - array.min())
    elif kind is MetaMetricKind.MAX_MIN_RATIO:
        value = float(array.max() / array.min())
    elif kind is MetaMetricKind.MAX_ABS_DIFF:
        value = float(np.abs(array - array.mean()).max())
    elif kind is MetaMetricKind.MEAN_ABS_DEV:
        value = float(np.abs(array - array.mean()).mean())
    elif kind is MetaMetricKind.VARIANCE:
        value = float(array.var(ddof=1))
    else:
        mean = array.mean()
        k = array.shape[0]
        total = float(((array / mean) ** exponent - 1.0).sum())
        value = total / (k * exponent * (exponent - 1.0))

    return MetaMetricResult(
        kind=kind,
        value=value,
        group_values=tuple(cleaned),
        metric=metric,
        groups=groups,
        exponent=exponent,
    )
