"""Tabular prediction data: loading, validation, imputation, thresholding.

The central type is :class:`AuditDataset`, an immutable column store of
binary outcomes, optional risk scores, optional binary decisions, a
protected-group label per record, and arbitrary covariate columns. All
downstream statistics consume it; none of them mutate it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .conditions import ConditionPredicate
from .errors import InputError

# Covariates with a higher fraction of missing cells than this are dropped
# by impute_medians rather than imputed.
MAX_MISSING_DEFAULT = 0.10


def _read_only(array: np.ndarray) -> np.ndarray:
    array = array.copy()
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class AuditDataset:
    """Immutable column-oriented table of classifier predictions.

    ``outcome`` is an int8 array over {0, 1}. ``score`` is a float64 array
    in [0, 1] with NaN marking missing cells, or None when no score column
    was bound. ``decision`` is an int8 array over {0, 1} with -1 marking
    unset cells, or None. ``group`` holds one non-empty label per record
    and must contain at least two distinct labels. Every record carries a
    score, a decision, or both.

    The group index (each label's rows) is built once, at construction.
    Derived datasets go through the same constructor, so they are
    validated and indexed the same way.
    """

    outcome: np.ndarray
    group: np.ndarray
    score: np.ndarray | None = None
    decision: np.ndarray | None = None
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    threshold: float | None = None
    n_dropped: int = 0
    imputation_log: Mapping[str, float] = field(default_factory=dict)
    dropped_covariates: Mapping[str, float] = field(default_factory=dict)
    _group_index: Mapping[str, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        outcome = np.asarray(self.outcome)
        if outcome.ndim != 1 or outcome.size == 0:
            raise InputError("outcome column must be a non-empty 1-d array")
        if not np.isin(outcome, (0, 1)).all():
            raise InputError("outcome values outside {0, 1}")
        outcome = outcome.astype(np.int8)
        n = outcome.shape[0]

        group = np.asarray(self.group, dtype=object)
        if group.shape != (n,):
            raise InputError("group column length does not match outcome")
        values = group.tolist()
        try:
            labels = sorted(set(values))
        except TypeError:  # unhashable labels, or labels of unorderable types
            raise InputError("group labels must be non-empty strings") from None
        if not all(isinstance(label, str) and label for label in labels):
            raise InputError("group labels must be non-empty strings")
        if len(labels) < 2:
            raise InputError("fewer than 2 distinct groups")
        code = {label: i for i, label in enumerate(labels)}
        codes = np.fromiter(map(code.__getitem__, values), np.intp, n)
        rows = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])

        score = self.score
        if score is not None:
            score = np.asarray(score, dtype=np.float64)
            if score.shape != (n,):
                raise InputError("score column length does not match outcome")
            present = ~np.isnan(score)
            bad = present & ((score < 0.0) | (score > 1.0))
            if bad.any():
                raise InputError("score values outside [0, 1]")

        decision = self.decision
        if decision is not None:
            decision = np.asarray(decision)
            if decision.shape != (n,):
                raise InputError("decision column length does not match outcome")
            if not np.isin(decision, (-1, 0, 1)).all():
                raise InputError("decision values outside {0, 1}")
            decision = decision.astype(np.int8)

        has_score = ~np.isnan(score) if score is not None else np.zeros(n, dtype=bool)
        has_decision = (decision >= 0) if decision is not None else np.zeros(n, dtype=bool)
        if not (has_score | has_decision).all():
            raise InputError("every record needs a score or a decision")

        if self.threshold is not None and not 0.0 <= float(self.threshold) <= 1.0:
            raise InputError("threshold outside [0, 1]")

        covariates = {}
        for name, column in dict(self.covariates).items():
            column = np.asarray(column)
            if column.shape != (n,):
                raise InputError(f"covariate {name!r} length does not match outcome")
            if column.dtype.kind == "f":
                column = column.astype(np.float64)
            else:
                column = column.astype(object)
            covariates[name] = _read_only(column)

        object.__setattr__(self, "outcome", _read_only(outcome))
        object.__setattr__(self, "group", _read_only(group))
        object.__setattr__(self, "score", _read_only(score) if score is not None else None)
        object.__setattr__(
            self, "decision", _read_only(decision) if decision is not None else None
        )
        object.__setattr__(self, "covariates", MappingProxyType(covariates))
        object.__setattr__(self, "imputation_log", MappingProxyType(dict(self.imputation_log)))
        object.__setattr__(
            self, "dropped_covariates", MappingProxyType(dict(self.dropped_covariates))
        )
        index = MappingProxyType(dict(zip(labels, map(_read_only, rows))))
        object.__setattr__(self, "_group_index", index)

    @property
    def n(self) -> int:
        return int(self.outcome.shape[0])

    def __len__(self) -> int:
        return self.n

    @property
    def groups(self) -> tuple[str, ...]:
        """Distinct group labels in sorted order."""
        return tuple(self._group_index)

    def group_positions(self, label: str) -> np.ndarray:
        """Row indices belonging to one group, in record order (read-only)."""
        try:
            return self._group_index[label]
        except KeyError:
            raise InputError(f"unknown group: {label!r}") from None

    def group_sizes(self) -> dict[str, int]:
        return {label: len(rows) for label, rows in self._group_index.items()}

    @property
    def has_scores(self) -> bool:
        """True when every record carries a score."""
        return self.score is not None and not np.isnan(self.score).any()

    @property
    def has_decisions(self) -> bool:
        """True when every record carries a decision."""
        return self.decision is not None and bool((self.decision >= 0).all())

    def take(self, indices: np.ndarray) -> "AuditDataset":
        """New dataset holding the given rows (repeats allowed)."""
        indices = np.asarray(indices, dtype=np.intp)
        return replace(
            self,
            outcome=self.outcome[indices],
            group=self.group[indices],
            score=self.score[indices] if self.score is not None else None,
            decision=self.decision[indices] if self.decision is not None else None,
            covariates={name: col[indices] for name, col in self.covariates.items()},
        )


def _parse_binary(cell: str, column: str) -> int | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise InputError(f"{column} value outside {{0, 1}}: {cell!r}") from None
    if value == 0.0:
        return 0
    if value == 1.0:
        return 1
    raise InputError(f"{column} value outside {{0, 1}}: {cell!r}")


def _parse_score(cell: str, column: str) -> float:
    cell = cell.strip()
    if not cell:
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise InputError(f"{column} value is not numeric: {cell!r}") from None
    if not 0.0 <= value <= 1.0:
        raise InputError(f"{column} value outside [0, 1]: {cell!r}")
    return value


def _decoded(lines: Iterable[str], path: str) -> Iterator[str]:
    """The file's lines; a byte sequence that is not UTF-8 raises InputError."""
    try:
        yield from lines
    except UnicodeDecodeError:
        raise InputError(f"cannot read {path!r}: not UTF-8 text") from None


def _check_one_line(row: list[str], start: int, end: int, path: str) -> None:
    """Reject a row that holds a line break in a cell, naming the line it began on.

    The reader only crosses a line end inside a quoted cell, so such a row
    ends on a later line than it began; a quote still open at the end of
    the file leaves the break in the row's last cell instead.
    """
    if end != start or (row and row[-1].endswith(("\n", "\r"))):
        raise InputError(
            f"line {start} of {path!r} has a line break inside a cell; is a quote left open?"
        )


def load_csv(
    path: str,
    *,
    outcome: str,
    group: str,
    score: str | None = None,
    decision: str | None = None,
    covariates: Sequence[str] | None = None,
) -> AuditDataset:
    """Load a CSV file into an AuditDataset.

    Column bindings are by header name. Unbound columns become covariates
    when ``covariates`` is None; otherwise only the listed columns are
    kept. Records missing the outcome, the group label, or both score and
    decision are dropped and counted in ``n_dropped``. Covariate columns
    whose non-missing cells all parse as numbers become float columns
    (NaN for missing); anything else stays categorical (None for
    missing). Covariate columns that are entirely missing are dropped.
    The file is read as UTF-8; a leading byte-order mark is skipped.
    Bytes that are not UTF-8, a row with non-blank cells beyond the
    header, and a cell holding a line break (usually an unclosed quote,
    which would swallow every later row) raise InputError.
    """
    if score is None and decision is None:
        raise InputError("bind a score column, a decision column, or both")
    bound = [name for name in (outcome, group, score, decision) if name is not None]
    if len(set(bound)) != len(bound):
        raise InputError("outcome/score/decision/group column names must be distinct")

    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from None

    with handle:
        reader = csv.reader(_decoded(handle, path))
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path!r} is empty") from None
        _check_one_line(header, 1, reader.line_num, path)
        header = [name.strip() for name in header]
        if covariates is None:
            covariate_names = [name for name in header if name and name not in bound]
        else:
            covariate_names = list(covariates)
            for name in covariate_names:
                if name in bound:
                    raise InputError(f"column {name!r} is already bound")
        for name in bound + covariate_names:
            if header.count(name) == 0:
                raise InputError(f"unknown column name: {name!r}")
            if header.count(name) > 1:
                raise InputError(f"duplicate column name: {name!r}")
        position = {name: header.index(name) for name in bound + covariate_names}

        outcomes: list[int] = []
        groups: list[str] = []
        scores: list[float] = []
        decisions: list[int] = []
        raw_covariates: dict[str, list[str]] = {name: [] for name in covariate_names}
        n_dropped = 0

        line, row = 1, []
        for row in reader:
            line += 1
            if reader.line_num != line:
                break  # a cell holds a line break: reported below
            if not any(cell.strip() for cell in row):
                continue
            if any(extra.strip() for extra in row[len(header) :]):
                raise InputError(f"line {line} of {path!r} has more cells than the header")

            def cell(name: str) -> str:
                index = position[name]
                return row[index] if index < len(row) else ""

            y = _parse_binary(cell(outcome), outcome)
            label = cell(group).strip()
            s = _parse_score(cell(score), score) if score is not None else math.nan
            d = _parse_binary(cell(decision), decision) if decision is not None else None
            if y is None or not label or (math.isnan(s) and d is None):
                n_dropped += 1
                continue
            outcomes.append(y)
            groups.append(label)
            scores.append(s)
            decisions.append(-1 if d is None else d)
            for name in covariate_names:
                raw_covariates[name].append(cell(name).strip())
        _check_one_line(row, line, reader.line_num, path)  # the row that ended the loop

    if not outcomes:
        raise InputError(f"no usable records in {path!r}")

    columns: dict[str, np.ndarray] = {}
    dropped: dict[str, float] = {}
    for name, cells in raw_covariates.items():
        present = [c for c in cells if c]
        if not present:
            dropped[name] = 1.0
            continue
        try:
            numeric = [math.nan if not c else float(c) for c in cells]
        except ValueError:
            columns[name] = np.array([c if c else None for c in cells], dtype=object)
        else:
            columns[name] = np.array(numeric, dtype=np.float64)

    return AuditDataset(
        outcome=np.array(outcomes),
        group=np.array(groups, dtype=object),
        score=np.array(scores, dtype=np.float64) if score is not None else None,
        decision=np.array(decisions) if decision is not None else None,
        covariates=columns,
        n_dropped=n_dropped,
        dropped_covariates=dropped,
    )


def impute_medians(
    dataset: AuditDataset,
    names: Sequence[str] | None = None,
    *,
    max_missing: float = MAX_MISSING_DEFAULT,
) -> AuditDataset:
    """Fill missing numeric covariate cells with the column median.

    Columns whose missing fraction exceeds ``max_missing`` are dropped
    instead and recorded in ``dropped_covariates``. Imputed medians are
    recorded in ``imputation_log``. Non-missing cells are never altered,
    so re-running is the identity. With ``names`` given, every named
    column must exist, be numeric, and have at least one observed value.
    """
    if not 0.0 <= max_missing <= 1.0:
        raise InputError("max_missing outside [0, 1]")
    if names is None:
        selected = [
            name for name, col in dataset.covariates.items() if col.dtype.kind == "f"
        ]
    else:
        selected = list(names)
        for name in selected:
            if name not in dataset.covariates:
                raise InputError(f"unknown covariate: {name!r}")
            if dataset.covariates[name].dtype.kind != "f":
                raise InputError(f"covariate {name!r} is not numeric")
            if np.isnan(dataset.covariates[name]).all():
                raise InputError(f"covariate {name!r} is entirely missing")

    columns = dict(dataset.covariates)
    log = dict(dataset.imputation_log)
    dropped = dict(dataset.dropped_covariates)
    changed = False
    for name in selected:
        column = columns[name]
        missing = np.isnan(column)
        count = int(missing.sum())
        if count == 0:
            continue
        changed = True
        fraction = count / column.shape[0]
        if fraction > max_missing or count == column.shape[0]:
            del columns[name]
            dropped[name] = fraction
            continue
        median = float(np.median(column[~missing]))
        filled = column.copy()
        filled[missing] = median
        columns[name] = filled
        log[name] = median
    if not changed:
        return dataset
    return replace(
        dataset, covariates=columns, imputation_log=log, dropped_covariates=dropped
    )


def apply_threshold(dataset: AuditDataset, cutoff: float) -> AuditDataset:
    """Derive decisions from scores: positive iff the score exceeds ``cutoff``.

    Requires every record to carry a score. Existing decisions are
    replaced. Raising the cutoff can only turn positives into negatives,
    and applying the same cutoff twice is the identity.
    """
    if not 0.0 <= float(cutoff) <= 1.0:
        raise InputError("threshold outside [0, 1]")
    if dataset.score is None or np.isnan(dataset.score).any():
        raise InputError("cannot apply a threshold: some records have no score")
    return replace(
        dataset, decision=(dataset.score > cutoff).astype(np.int8), threshold=float(cutoff)
    )


def filter_condition(
    dataset: AuditDataset, predicate: ConditionPredicate | str
) -> AuditDataset:
    """Keep only records matching the predicate.

    Errors if the result is empty or if any group present before the
    filter loses all of its records, since downstream comparisons expect
    every group to survive.
    """
    if isinstance(predicate, str):
        predicate = ConditionPredicate.parse(predicate)
    keep = predicate.mask(dataset)
    if not keep.any():
        raise InputError(f"condition {str(predicate)!r} matches no records")
    for label in dataset.groups:
        if not keep[dataset.group_positions(label)].any():
            raise InputError(
                f"condition {str(predicate)!r} leaves group {label!r} empty"
            )
    return dataset.take(np.flatnonzero(keep))
