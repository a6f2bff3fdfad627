"""Stratified bootstrap confidence intervals for metric gaps.

Resampling draws records with replacement within each group, keeping
group sizes fixed. Drawing n records uniformly with replacement is the
same as drawing how many come from each of the group's four confusion
cells (TN, FP, FN, TP), as one Multinomial(n, cell sizes / n) row, and
then that many records uniformly within each cell (Efron 1979). The
cells are the group's record from :func:`metrics._cells`, cut by
decision whenever every record of the group has one, so they never
depend on the metrics requested. The cell counts alone give every
confusion metric; records within cells are drawn only for score
metrics, after the counts, so a score metric never changes the counts.
A group's iterations are drawn in blocks of
``max(1, 2**15 // n, min(128, 2**17 // n))`` resamples: 2**15 // n of
them for a group of 256 records or fewer, otherwise at most 128 and at
most 2**17 records drawn within cells (one resample above 2**17
records). Each (seed, first iteration of the block, group label) triple
addresses that block's random substream, and a block always draws all
its resamples into its own rows. Replicates are therefore a pure
function of the data order, the seed, the iteration and the group:
reruns reproduce bit for bit, the first B replicates do not depend on
how many follow, and a group's replicates are the same in every pair it
joins. So a group's blocks may be drawn in any order and, with
``BootstrapConfig.workers`` above 1, on up to that many threads (numpy
releases the interpreter lock while it draws and gathers); the
replicates do not depend on how many. A group whose metrics read only
confusion cells draws one multinomial per block, and stays on one
thread. A block's substream gives, in this order, one multinomial draw
of all its resamples' cell counts and then, only when the metrics read
float terms, one uniform integer draw per non-empty cell, in cell order,
of that cell's records for every resample in turn. :func:`_replicate_sums` is
the only code that draws (the tests' reference resampler restates the
stream). A block only records: its cell counts and, for each float term
the metrics read (``metrics._SCORE_TERMS``), the sum of every (cell,
resample) segment of its drawn records; one pass per group then builds
the replicate sums the way the point sums are built. A dataset keeps
each group's replicate sums under the memo key ``("replicates", label,
seed, iterations, terms)``, ``terms`` naming the float terms gathered
(the worker count changes no replicate, so it is not in the key), so
the pairs of an audit share them.

Intervals are normal-approximation (Wald): the difference interval uses
the standard deviation of resampled differences, and the ratio interval
is the difference interval on the log scale (of the log-transformed
replicates and point estimates), exponentiated. Iterations where a
statistic is undefined (or non-positive, for ratios) are discarded; more
than ``degenerate_tolerance`` of them is an error.
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
    _CELLS,
    MetricId,
    _Cells,
    _check_pair,
    _checked_cells,
    _floats,
    _metric_values,
    _sums_rows,
    _terms,
    coerce_metric,
    group_metric,
    is_defined,
)


# Interval defaults, shared by the library and the CLI flags.
ALPHA_DEFAULT = 0.05
SEED_DEFAULT = 0


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling parameters.

    ``iterations`` lies in [2, 10**6] and ``workers`` in [1, 64]: the caps
    stop a mistyped value before it allocates or starts threads.
    ``degenerate_tolerance`` caps the fraction of iterations an interval
    may discard for undefined statistics before the computation fails.
    ``workers`` is how many threads draw one group's blocks; it changes
    no replicate.
    """

    iterations: int = 1000
    alpha: float = ALPHA_DEFAULT
    seed: int = SEED_DEFAULT
    degenerate_tolerance: float = 0.01
    workers: int = 1

    def __post_init__(self) -> None:
        if self.iterations < 2:
            raise InputError("bootstrap needs at least 2 iterations")
        if self.iterations > 10**6:
            raise InputError("bootstrap must be at most 1000000")
        if not 0.0 < self.alpha < 1.0:
            raise InputError("alpha outside (0, 1)")
        if 1.0 - self.alpha / 2.0 == 1.0:
            raise InputError("alpha too small: 1 - alpha/2 rounds to 1")
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        if not 0.0 <= self.degenerate_tolerance <= 1.0:
            raise InputError("degenerate_tolerance outside [0, 1]")
        if self.workers < 1:
            raise InputError("workers must be at least 1")
        if self.workers > 64:
            raise InputError("workers must be at most 64")

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


def _substream(seed: int, iteration: int, group_key: int) -> np.random.Generator:
    sequence = np.random.SeedSequence([seed, iteration, group_key])
    return np.random.Generator(np.random.PCG64(sequence))


# A large group's block draws at most _BLOCK_CELLS records within cells and
# at most 128 resamples, so no group draws far more resamples than it needs;
# a group of n <= 256 records keeps 2**15 // n resamples per block.
_BLOCK_CELLS = 2**17


def _block_rows(size: int) -> int:
    return max(1, 2**15 // size, min(128, _BLOCK_CELLS // size))


def _group_replicates(
    dataset: AuditDataset, label: str, metrics: tuple[MetricId, ...], config: BootstrapConfig
) -> np.ndarray:
    """Metric values on each of one group's resamples (B x metrics, NaN = undefined).

    The column checks run on every call; the replicate sums are computed
    once per dataset, group, seed, iteration count and set of float terms
    the metrics read: records are drawn within cells only when there are
    terms, and only those terms are gathered.
    """
    cells = _checked_cells(dataset, label, metrics)
    terms = _terms(metrics)
    key = ("replicates", label, config.seed, config.iterations, terms)
    sums = dataset._memo.get(key)
    if sums is None:
        sums = dataset._memo[key] = _replicate_sums(dataset, label, cells, terms, config)
    return _metric_values(sums, metrics)


def _replicate_sums(
    dataset: AuditDataset,
    label: str,
    cells: _Cells,
    terms: tuple[str, ...],
    config: BootstrapConfig,
) -> np.ndarray:
    """One group's (B, k) replicate sums rows.

    The group's non-empty cells, their probabilities and record ranges,
    its substream key and its block size are worked out once. Each block
    draws in the stream order the module docstring gives, holding one
    cell's drawn records at a time, and only records: its cell counts
    and, per term, the sum of every (cell, resample) segment of its drawn
    records, into arrays held for the whole group. With float terms, up
    to ``config.workers`` threads draw interleaved shares of the blocks,
    the calling thread the first. One pass over those arrays then builds
    the rows, the way the point sums are built.
    """
    B = config.iterations
    sizes = cells.sizes
    n = int(sizes.sum())
    nonempty = np.flatnonzero(sizes)
    pvals = sizes[nonempty] / n
    ends = np.cumsum(sizes)
    ranges = list(zip(nonempty, (ends - sizes)[nonempty], ends[nonempty]))
    key = _group_key(label)
    block_rows = _block_rows(n)
    blocks = range(0, B, block_rows)
    counts = np.zeros((len(blocks) * block_rows, _CELLS), dtype=np.int64)
    cell_sums = np.zeros((len(terms), _CELLS, counts.shape[0]))
    floats = _floats(dataset, cells.rows, terms) if terms else None

    def draw(share: range) -> None:
        for start in share:
            rng = _substream(config.seed, start, key)
            rows = slice(start, start + block_rows)
            block = counts[rows]
            block[:, nonempty] = rng.multinomial(n, pvals, size=block_rows)
            if not terms:
                continue
            drawn = block > 0
            starts = np.cumsum(block, axis=0) - block
            totals = block.sum(axis=0)
            for c, low, high in ranges:
                picks = rng.integers(low, high, totals[c])
                segments = starts[drawn[:, c], c]
                # one term at a time keeps each gathered array small
                for term_sums, values in zip(cell_sums[:, c, rows], floats):
                    term_sums[drawn[:, c]] = np.add.reduceat(values.take(picks), segments)

    workers = min(config.workers, len(blocks))
    if terms and workers > 1:
        # imported here: concurrent.futures loads logging, which a serial run never needs
        from concurrent.futures import ThreadPoolExecutor

        # each block has its own substream and rows, so shares need no lock
        shares = [blocks[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(draw, share) for share in shares[1:]]
            draw(shares[0])
            for helper in helpers:
                helper.result()
    else:
        draw(blocks)
    return _sums_rows(counts[:B], cell_sums[:, :, :B], terms, cells.decided, cells.scored)


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


def _wald(va, vb, point_a: float, point_b: float, config: BootstrapConfig, log: bool) -> Interval:
    """Wald interval for point_a - point_b or, with ``log``, for point_a / point_b:
    the same interval on the log scale, exponentiated back."""
    with np.errstate(invalid="ignore"):
        kept = np.isfinite(va) & np.isfinite(vb)
        if log:
            kept &= (va > 0.0) & (vb > 0.0)
    discarded = _check_discarded(kept, config, "ratio" if log else "difference")
    va, vb = va[kept], vb[kept]
    if log:
        va, vb, point_a, point_b = np.log(va), np.log(vb), math.log(point_a), math.log(point_b)
    center = point_a - point_b
    margin = config.z * float(np.std(va - vb, ddof=1))
    bounds = (center - margin, center + margin)
    if not log:
        return Interval(*bounds, IntervalMethod.WALD_DIFF, discarded)
    try:
        return Interval(*map(math.exp, bounds), IntervalMethod.WALD_LOG_RATIO, discarded)
    except OverflowError:
        raise ComputationError("ratio interval bound overflows a float") from None


def _single_interval(dataset, metric, group_a, group_b, config, log: bool) -> Interval:
    _check_pair(dataset, group_a, group_b)
    config = config or BootstrapConfig()
    metric = coerce_metric(metric)
    point_a = group_metric(dataset, group_a, metric)
    point_b = group_metric(dataset, group_b, metric)
    if not is_defined(point_a) or not is_defined(point_b):
        raise InputError(f"point estimate of {metric.value} is undefined")
    if log and (point_a <= 0.0 or point_b <= 0.0):
        raise InputError(
            f"ratio interval for {metric.value} needs strictly positive point estimates"
        )
    va = _group_replicates(dataset, group_a, (metric,), config)[:, 0]
    vb = _group_replicates(dataset, group_b, (metric,), config)[:, 0]
    return _wald(va, vb, point_a, point_b, config, log)


def ci_diff(
    dataset: AuditDataset,
    metric,
    group_a: str,
    group_b: str,
    config: BootstrapConfig | None = None,
) -> Interval:
    """Wald interval for the between-group difference of one metric."""
    return _single_interval(dataset, metric, group_a, group_b, config, log=False)


def ci_ratio(
    dataset: AuditDataset,
    metric,
    group_a: str,
    group_b: str,
    config: BootstrapConfig | None = None,
) -> Interval:
    """Wald interval for the between-group ratio, built on the log scale."""
    return _single_interval(dataset, metric, group_a, group_b, config, log=True)


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

    All requested metrics share one draw per (iteration, group), so adding
    a metric never changes the resamples of the others, and each group's
    replicates depend only on that group, never on the pair it joins.
    Precondition failures are reported per metric in notes rather than
    raised; exceeding the discard tolerance still raises, naming the
    metric and the pair.
    """
    config = config or BootstrapConfig()
    metrics = tuple(dict.fromkeys(coerce_metric(m) for m in metrics))
    if not metrics:
        raise InputError("no metrics requested")
    _check_pair(dataset, group_a, group_b)
    values_a = _group_replicates(dataset, group_a, metrics, config)
    values_b = _group_replicates(dataset, group_b, metrics, config)
    out: dict[MetricId, PairIntervals] = {}
    for metric, va, vb in zip(metrics, values_a.T, values_b.T):
        point_a = group_metric(dataset, group_a, metric)
        point_b = group_metric(dataset, group_b, metric)
        notes: list[str] = []
        diff = ratio = None
        try:
            if is_defined(point_a) and is_defined(point_b):
                diff = _wald(va, vb, point_a, point_b, config, log=False)
                if point_a > 0.0 and point_b > 0.0:
                    ratio = _wald(va, vb, point_a, point_b, config, log=True)
                else:
                    notes.append("ratio interval skipped: needs strictly positive values")
            else:
                notes.append("intervals skipped: point estimate undefined")
        except ComputationError as exc:
            raise ComputationError(f"{metric.value}, {group_a!r} vs {group_b!r}: {exc}") from None
        out[metric] = PairIntervals(diff=diff, ratio=ratio, notes=tuple(notes))
    return out
