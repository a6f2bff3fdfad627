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
    try:
        return MetaMetricKind(kind)
    except ValueError:
        raise InputError(f"unknown meta-metric kind: {kind!r}") from None


def checked_exponent(kind: MetaMetricKind, exponent: float | None) -> float | None:
    """The exponent ``kind`` is computed with; only generalized entropy takes one.

    Its exponent is 2 when None, and it must be finite and avoid 0 and 1.
    """
    if kind is not MetaMetricKind.GENERALIZED_ENTROPY:
        if exponent is not None:
            raise InputError(f"{kind.value} takes no exponent")
        return None
    if exponent is None:
        return GEI_DEFAULT_EXPONENT
    if not np.isfinite(exponent):
        raise InputError("generalized entropy exponent must be finite")
    if exponent in (0.0, 1.0):
        raise InputError("generalized entropy exponent must avoid 0 and 1")
    return exponent


def meta(
    values: Sequence[float] | Mapping[str, float],
    kind: MetaMetricKind | str,
    *,
    exponent: float | None = None,
    metric: MetricId | None = None,
) -> MetaMetricResult:
    """Collapse per-group metric values into one spread summary.

    Accepts a sequence of values or a mapping from group label to value.
    A None, UNDEFINED or NaN value refuses a mapping with ``undefined for
    group(s) 'b', 'c'``, naming each such label in mapping order, and a
    sequence with ``meta-metrics need every group value defined``. Ratio
    and entropy kinds need every value strictly positive. The generalized
    entropy exponent must be finite and avoid 0 and 1, where the formula
    degenerates; it defaults to 2. A summary that overflows to a value
    that is not finite is refused.

    Identical inputs yield exactly 0 (exactly 1 for the ratio kind).
    """
    kind = coerce_kind(kind)
    groups = tuple(values) if isinstance(values, Mapping) else None
    values = values.values() if groups is not None else values
    cleaned = [np.nan if v is None or not is_defined(v) else float(v) for v in values]
    undefined = [j for j, value in enumerate(cleaned) if np.isnan(value)]
    if undefined and groups is None:
        raise InputError("meta-metrics need every group value defined")
    if undefined:
        raise InputError(f"undefined for group(s) {', '.join(repr(groups[j]) for j in undefined)}")
    if len(cleaned) < 2:
        raise InputError("meta-metrics need at least 2 group values")
    array = np.array(cleaned, dtype=np.float64)

    if kind in POSITIVE_ONLY_KINDS and (array <= 0.0).any():
        raise InputError(f"{kind.value} needs strictly positive group values")

    exponent = checked_exponent(kind, exponent)

    with np.errstate(over="ignore", invalid="ignore"):
        if np.all(array == array[0]):
            value = 1.0 if kind is MetaMetricKind.MAX_MIN_RATIO else 0.0
        elif kind is MetaMetricKind.MAX_MIN_DIFF:
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
    if not np.isfinite(value):
        raise InputError(f"{kind.value} is not finite for these group values")

    return MetaMetricResult(
        kind=kind,
        value=value,
        group_values=tuple(cleaned),
        metric=metric,
        groups=groups,
        exponent=exponent,
    )
