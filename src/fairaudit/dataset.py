"""Tabular prediction data: loading, validation, imputation, thresholding.

The central type is :class:`AuditDataset`, an immutable column store of
binary outcomes, optional risk scores, optional binary decisions, a
protected-group label per record, and arbitrary covariate columns. All
downstream statistics consume it; none of them mutate it.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import chain, compress
from operator import itemgetter
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .conditions import ConditionPredicate
from .errors import InputError

# Covariates with a higher fraction of missing cells than this are dropped
# by impute_medians rather than imputed.
MAX_MISSING_DEFAULT = 0.10


def _read_only(array: np.ndarray, dtype=None) -> np.ndarray:
    array = np.array(array, dtype=dtype)
    array.setflags(write=False)
    return array


class GroupCodes(NamedTuple):
    """A dictionary-encoded group column: sorted distinct labels, and each
    record's index into them."""

    labels: tuple[str, ...]
    codes: np.ndarray


def _labels_to_codes(values: list) -> GroupCodes:
    """Encode a column of labels: its distinct labels, sorted, and codes."""
    try:
        labels = sorted(set(values))
    except TypeError:  # unhashable labels, or labels of unorderable types
        raise InputError("group labels must be non-empty strings") from None
    code = {label: i for i, label in enumerate(labels)}
    codes = np.fromiter(map(code.__getitem__, values), np.intp, len(values))
    return GroupCodes(tuple(labels), codes)


def _checked_group(group, n: int) -> tuple[GroupCodes, np.ndarray]:
    """The group column of ``n`` records as validated read-only codes over
    the labels some record carries, and each label's record count."""
    if isinstance(group, GroupCodes):
        labels, codes = tuple(group.labels), np.asarray(group.codes)
    else:
        group = np.asarray(group, dtype=object)
        if group.shape != (n,):
            raise InputError("group column length does not match outcome")
        labels, codes = _labels_to_codes(group.tolist())
    if not all(isinstance(label, str) and label for label in labels):
        raise InputError("group labels must be non-empty strings")
    if any(a >= b for a, b in zip(labels, labels[1:])):
        raise InputError("group labels must be sorted and distinct")
    if codes.shape != (n,):
        raise InputError("group column length does not match outcome")
    out_of_range = f"group codes must be integers in [0, {len(labels)})"
    if codes.dtype.kind not in "iu":
        raise InputError(out_of_range)
    try:
        counts = np.bincount(codes, minlength=len(labels))
    except (TypeError, ValueError):  # negative codes, or unsigned ones wider than intp
        raise InputError(out_of_range) from None
    if counts.shape[0] > len(labels):
        raise InputError(out_of_range)
    present = counts > 0
    if np.count_nonzero(present) < 2:
        raise InputError("fewer than 2 distinct groups")
    if not present.all():  # drop the labels no record carries, and renumber
        labels = tuple(compress(labels, present.tolist()))
        codes = (np.cumsum(present) - 1)[codes]
        counts = counts[present]
    narrow = np.int16 if len(labels) <= np.iinfo(np.int16).max else np.intp
    return GroupCodes(labels, _read_only(codes, narrow)), counts


def _all_in(values: np.ndarray, allowed: tuple[int, ...]) -> bool:
    """Whether every value equals one of ``allowed``. Text never does, and is
    rejected before comparing: numpy 1.24 answers ``str_array == 0`` with a
    warning and a scalar."""
    if values.dtype.kind in "US":
        return False
    hit = values == allowed[0]
    for value in allowed[1:]:
        hit |= values == value
    return bool(hit.all())


class _GroupColumn:
    """The ``group`` field: assigned labels or :class:`GroupCodes`, read as
    a read-only object array of labels gathered from the encoded column
    that the dataset keeps in ``_group``."""

    def __get__(self, dataset, owner=None) -> np.ndarray:
        if dataset is None:
            raise AttributeError("group")  # no class-level value: the field has no default
        labels, codes = dataset._group
        column = np.array(labels, dtype=object)[codes]
        column.setflags(write=False)
        return column

    def __set__(self, dataset, value) -> None:
        object.__setattr__(dataset, "_group", value)


@dataclass(frozen=True, eq=False)
class AuditDataset:
    """Immutable column-oriented table of classifier predictions.

    ``outcome`` is an int8 array over {0, 1}. ``score`` is a float64 array
    in [0, 1] with NaN marking missing cells, or None when no score column
    was bound. ``decision`` is an int8 array over {0, 1} with -1 marking
    unset cells, or None. ``group`` gives one non-empty label per record,
    with at least two distinct labels. Every record carries a score, a
    decision, or both; ``has_scores`` and ``has_decisions`` are True when
    every record carries one. A boolean, integer or float covariate is kept
    as a numeric float64 column, any other as a categorical object column.
    ``dropped_by_reason`` counts the records the loader dropped by why (see
    :func:`load_csv`), and ``n_dropped``, a property, is their sum.

    The group column is dictionary-encoded: the dataset keeps its sorted
    distinct labels and one integer code per record (int16 below 2**15
    labels), and reading ``group`` gathers the labels from the codes.
    ``group`` accepts either form: an array of labels, which is encoded
    here, or a :class:`GroupCodes` pair of sorted distinct labels and
    codes, which is only checked. Both are validated the same way, and
    labels that no record carries are dropped and the codes renumbered.
    Derived datasets (:meth:`take`, :func:`impute_medians`,
    :func:`apply_threshold`) pass codes, so labels are mapped to codes
    once, when the data is loaded; ``dataclasses.replace`` without a
    ``group`` reads the labels back and encodes them again.

    The group index (each label's rows) is built once, at construction.
    Derived datasets go through the same constructor, so they are
    validated and indexed the same way, and start with an empty memo.
    The memo keeps what an audit derives from the dataset more than once,
    under five kinds of key: ``("stratum", clauses)``, the stratum of a
    condition's clauses; ``("cells", label)``, a group's records laid out
    by confusion cell; ``("metrics",)``, every group's point estimates (see
    :mod:`fairaudit.metrics`); ``("replicates", label, seed, iterations,
    terms)``, a group's bootstrap replicate sums; and ``("calibration",
    label, bins, min_bin_count)``, a group's calibration curve. Only
    successful results are kept, so errors recur on every call. Datasets
    compare and hash by identity.
    """

    outcome: np.ndarray
    group: np.ndarray = _GroupColumn()
    score: np.ndarray | None = None
    decision: np.ndarray | None = None
    covariates: Mapping[str, np.ndarray] = field(default_factory=dict)
    threshold: float | None = None
    imputation_log: Mapping[str, float] = field(default_factory=dict)
    dropped_covariates: Mapping[str, float] = field(default_factory=dict)
    dropped_by_reason: Mapping[str, int] = field(default_factory=dict)
    has_scores: bool = field(init=False, repr=False)
    has_decisions: bool = field(init=False, repr=False)
    _group: GroupCodes = field(init=False, repr=False)
    _group_index: Mapping[str, np.ndarray] = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        outcome = np.asarray(self.outcome)
        if outcome.ndim != 1 or outcome.size == 0:
            raise InputError("outcome column must be a non-empty 1-d array")
        if not _all_in(outcome, (0, 1)):
            raise InputError("outcome values outside {0, 1}")
        n = outcome.shape[0]

        group, counts = _checked_group(self._group, n)
        rows = np.split(np.argsort(group.codes, kind="stable"), np.cumsum(counts)[:-1])

        has_score = has_decision = np.zeros(n, dtype=bool)
        score = self.score
        if score is not None:
            score = np.asarray(score, dtype=np.float64)
            if score.shape != (n,):
                raise InputError("score column length does not match outcome")
            if ((score < 0.0) | (score > 1.0)).any():  # NaN compares False
                raise InputError("score values outside [0, 1]")
            has_score = ~np.isnan(score)

        decision = self.decision
        if decision is not None:
            decision = np.asarray(decision)
            if decision.shape != (n,):
                raise InputError("decision column length does not match outcome")
            if not _all_in(decision, (-1, 0, 1)):
                raise InputError("decision values outside {0, 1}")
            has_decision = decision >= 0

        if not (has_score | has_decision).all():
            raise InputError("every record needs a score or a decision")

        if self.threshold is not None:
            checked_threshold(self.threshold)
        reasons = dict(self.dropped_by_reason)
        if not set(reasons) <= set(_DROP_REASONS):
            raise InputError(f"drop reasons must be among {', '.join(_DROP_REASONS)}")
        if not all(type(count) is int and count >= 0 for count in reasons.values()):
            raise InputError("drop counts must be non-negative integers")

        covariates = {}
        for name, column in dict(self.covariates).items():
            column = np.asarray(column)
            if column.shape != (n,):
                raise InputError(f"covariate {name!r} length does not match outcome")
            dtype = np.float64 if column.dtype.kind in "biuf" else object
            covariates[name] = _read_only(column, dtype)

        object.__setattr__(self, "outcome", _read_only(outcome, np.int8))
        object.__setattr__(self, "_group", group)
        object.__setattr__(self, "score", _read_only(score) if score is not None else None)
        object.__setattr__(
            self, "decision", _read_only(decision, np.int8) if decision is not None else None
        )
        object.__setattr__(self, "has_scores", bool(has_score.all()))
        object.__setattr__(self, "has_decisions", bool(has_decision.all()))
        object.__setattr__(self, "covariates", MappingProxyType(covariates))
        object.__setattr__(self, "imputation_log", MappingProxyType(dict(self.imputation_log)))
        object.__setattr__(
            self, "dropped_covariates", MappingProxyType(dict(self.dropped_covariates))
        )
        object.__setattr__(self, "dropped_by_reason", MappingProxyType(reasons))
        index = MappingProxyType(dict(zip(group.labels, map(_read_only, rows))))
        object.__setattr__(self, "_group_index", index)
        object.__setattr__(self, "_memo", {})

    @property
    def n(self) -> int:
        return int(self.outcome.shape[0])

    @property
    def n_dropped(self) -> int:
        return sum(self.dropped_by_reason.values())

    def __len__(self) -> int:
        return self.n

    @property
    def groups(self) -> tuple[str, ...]:
        """Distinct group labels in sorted order."""
        return self._group.labels

    def group_positions(self, label: str) -> np.ndarray:
        """Row indices belonging to one group, in record order (read-only)."""
        try:
            return self._group_index[label]
        except KeyError:
            raise InputError(f"unknown group: {label!r}") from None

    def group_sizes(self) -> dict[str, int]:
        return {label: len(rows) for label, rows in self._group_index.items()}

    def _covariate(self, name: str) -> np.ndarray:
        """The covariate a condition names, or InputError saying why there is none."""
        if name in self.covariates:
            return self.covariates[name]
        if name in self.dropped_covariates:
            share = f"{self.dropped_covariates[name]:.0%}"
            raise InputError(f"covariate {name!r} was dropped: {share} of its cells are missing")
        raise InputError(f"unknown covariate in condition: {name!r}")

    def take(self, indices: np.ndarray) -> "AuditDataset":
        """New dataset holding the given rows (repeats allowed)."""
        indices = np.asarray(indices, dtype=np.intp)
        return replace(
            self,
            outcome=self.outcome[indices],
            group=self._group._replace(codes=self._group.codes[indices]),
            score=self.score[indices] if self.score is not None else None,
            decision=self.decision[indices] if self.decision is not None else None,
            covariates={name: col[indices] for name, col in self.covariates.items()},
        )


# Characters read at a time, plus the rest of the last line: memory holds one
# block of text and cells, never the whole file. A block holding a double
# quote, a NUL or a line longer than csv's field limit goes through csv.reader;
# any other is split on commas directly.
_BLOCK_CHARS = 2**16

# Codes of a binary cell besides 0 and 1. Decision codes are kept as they are,
# so _BLANK must be AuditDataset's code for an unset decision.
_BLANK, _BAD = -1, 2

# Why a record is dropped, in the order a record missing several is counted.
_DROP_REASONS = ("outcome", "group", "score_and_decision")


def _float_or_nan(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _binary_code(cell: str) -> int:
    """A binary cell's code: 0 or 1 as float() reads it, _BLANK, or _BAD."""
    if not cell.strip():
        return _BLANK
    return {0.0: 0, 1.0: 1}.get(_float_or_nan(cell), _BAD)


def _encoded(cells: list[str], table: dict[str, int], code, dtype) -> np.ndarray:
    """A column's codes through its raw cell -> code ``table``, where ``code`` fills in new cells."""
    try:
        codes = itemgetter(*cells)(table) if len(cells) > 1 else [table[c] for c in cells]
    except KeyError:
        table.update({cell: code(cell) for cell in set(cells).difference(table)})
        return _encoded(cells, table, code, dtype)
    return np.fromiter(codes, dtype, len(cells))


def _block_codes(cells: list[str], table: dict[str, int], labels: list[str]) -> np.ndarray:
    """Label codes of a block's label cells, -1 where blank; a new label joins ``labels``."""

    def code(cell: str) -> int:
        label = cell.strip()
        if label and label not in table:  # the bare label is a cell with its code too
            table[label] = len(labels)
            labels.append(label)
        return table[label] if label else -1

    return _encoded(cells, table, code, np.intp)


def _append(pieces: list[np.ndarray], piece: np.ndarray) -> None:
    """Keep a block's piece of a column; every 64 pieces are joined into one."""
    pieces.append(piece)
    if len(pieces) == 64:
        pieces[:] = [np.concatenate(pieces)]


def _scores(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """A score column, NaN where blank, and a mask of the cells that are not
    blank and not a number in [0, 1]."""
    some_blank = "" in cells
    try:  # numpy parses a str as float() does; a blank cell is passed as NaN
        score = np.array([cell or "nan" for cell in cells] if some_blank else cells, np.float64)
    except ValueError:  # a whitespace-only or non-numeric cell
        cells = [cell.strip() for cell in cells]
        score = np.fromiter(map(_float_or_nan, cells), np.float64, len(cells))
        some_blank = True
    bad = ~((score >= 0.0) & (score <= 1.0))
    if some_blank:
        bad &= np.fromiter(map(bool, cells), bool, len(cells))
    return score, bad


def _rejection(column: str, cell: str, binary: bool) -> str:
    """Why a cell of ``column`` that its parse rejected does not load."""
    cell = cell.strip()
    if binary:
        why = "outside {0, 1}"
    else:
        try:
            float(cell)
            why = "outside [0, 1]"
        except ValueError:
            why = "is not numeric"
    return f"{column} value {why}: {cell!r}"


def _fitted(row: list[str], width: int) -> tuple[list[str], bool]:
    """A row padded or cut to ``width`` cells, and whether the cut cells held anything."""
    return (row + [""] * (width - len(row)))[:width], bool("".join(row[width:]).strip())


def _holds_line_break(row: list[str]) -> bool:
    return any("\n" in cell or "\r" in cell for cell in row)


def _line_break_error(line: int, path: str) -> InputError:
    """A row that holds a line break in a cell, named by the line it began on.

    csv.reader reads past a line end only inside a quoted cell, which keeps
    the break, so every row that spans lines holds one; so does a row whose
    quote is still open at the end of the file.
    """
    return InputError(
        f"line {line} of {path!r} has a line break inside a cell; is a quote left open?"
    )


def _csv_block(
    lines: list[str], handle: Iterable[str], width: int, first: int, path: str
) -> tuple[list[str], np.ndarray, InputError | None]:
    """Read a block of ``lines``, from file line ``first`` on, with csv.reader.

    Returns the rows' cells, ``width`` per row (short rows padded, long ones
    cut), whether each row's cut cells held anything, and the error that
    ended the rows early: a csv error, or the first row holding a line break.
    Such a row is read again, on into ``handle``, as a quote it left open
    past the block's end may run into csv's field limit.
    """
    rows: list[list[str]] = []
    error = None
    try:
        rows.extend(csv.reader(lines))  # keeps the rows read before an error
    except csv.Error as exc:  # e.g. an open quote swallowing more than the field limit
        error = InputError(f"line {first + len(rows)} of {path!r}: {exc}")
    if len(rows) < len(lines) or _holds_line_break(rows[-1]):  # a row spans lines?
        n = next((i for i, row in enumerate(rows) if _holds_line_break(row)), len(rows))
        if n < len(rows):  # each row before it is one line, so it begins on line first + n
            error = _line_break_error(first + n, path)
            try:
                next(csv.reader(chain(lines[n:], handle)))
            except csv.Error as exc:
                error = InputError(f"line {first + n} of {path!r}: {exc}")
            del rows[n:]
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    extra = np.zeros(len(rows), dtype=bool)
    for i in np.flatnonzero(lengths != width).tolist():
        rows[i], extra[i] = _fitted(rows[i], width)
    return list(chain.from_iterable(rows)), extra, error


def _comma_block(text: str, width: int) -> tuple[list[str], np.ndarray]:
    """Split a block of lines, each ending in "\\n", with no quote or NUL, on commas.

    Returns the cells, ``width`` per line (short lines padded, long ones
    cut), and whether each line's cut cells held anything. One pass over
    the block's UTF-8 bytes finds the line ends and each line's comma
    count; only lines of another count are split one at a time.
    """
    data = np.frombuffer(text.encode("utf-8"), np.uint8)
    marks = np.flatnonzero((data == ord("\n")) | (data == ord(",")))
    ends = np.flatnonzero(data[marks] == ord("\n"))  # each line end's index among the marks
    del data, marks
    extra = np.zeros(len(ends), dtype=bool)
    ragged = np.flatnonzero(np.diff(ends, prepend=-1) != width).tolist()  # commas + 1 per line
    if ragged:
        lines = text.split("\n")
        for i in ragged:
            row, extra[i] = _fitted(lines[i].split(","), width)
            lines[i] = ",".join(row)
        text = "\n".join(lines)
        del lines
    cells = text.replace("\n", ",").split(",")
    del text, cells[len(ends) * width :]  # the cell after the last line end
    return cells, extra


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

    Column bindings are by header name. Unbound columns whose name is
    neither blank nor repeated become covariates when ``covariates`` is
    None; otherwise only the listed columns are kept. Records missing
    the outcome, the group label, or both score and decision are
    dropped and counted in ``dropped_by_reason`` under the first of those
    reasons; blank lines are skipped and not counted.
    The header is the first line with a non-blank cell; the
    blank lines before it are skipped too, but still counted in line
    numbers. Covariate columns whose non-missing cells all parse as
    numbers become float columns (NaN for missing); anything else stays
    categorical (None for missing). Covariate columns that are entirely
    missing are dropped. The file is read as UTF-8; a leading byte-order
    mark is skipped. Bytes that are not UTF-8, a row with non-blank cells
    beyond the header, a cell that does not parse, a cell holding a line
    break (usually an unclosed quote, which would swallow every later
    row) and a cell longer than the csv module's field limit (an unclosed
    quote followed by more than 128 KiB) raise InputError naming the
    first such row's file line.

    No cell may hold a line break, so every row kept is one line. The file
    is read in blocks of ``_BLOCK_CHARS`` characters and the rest of the
    last line; a block never ends between a "\\r" and its "\\n". A block
    with no double quote, no NUL and no line past the field limit has its
    line ends made "\\n" and is split on commas; any other is cut into lines
    as the file iterator cuts them and goes through csv.reader, so quoting,
    NUL and the field limit work, and fail with the messages, as in csv.
    Each block is parsed one column at a time; each encoded column (outcome,
    decision, group, covariate) has one raw cell -> code table for the whole
    file. Memory holds one block's text and cells, plus the kept rows'
    values, each covariate's as integer codes into its distinct labels.
    """
    if score is None and decision is None:
        raise InputError("bind a score column, a decision column, or both")
    bound = [name for name in (outcome, group, score, decision) if name is not None]
    if len(set(bound)) != len(bound):
        raise InputError("outcome/score/decision/group column names must be distinct")

    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from None

    with handle:
        rows, header = csv.reader(handle), []
        try:
            while not "".join(header).strip():  # blank lines before the header are skipped
                line = rows.line_num + 1
                header = next(rows)
                if _holds_line_break(header):
                    raise _line_break_error(line, path)
        except StopIteration:
            raise InputError(f"{path!r} is empty") from None
        except UnicodeDecodeError:
            raise InputError(f"cannot read {path!r}: not UTF-8 text") from None
        except csv.Error as exc:
            raise InputError(f"line {line} of {path!r}: {exc}") from None
        header = [name.strip() for name in header]
        if covariates is None:
            covariate_names = [
                name for name in header if name and name not in bound and header.count(name) == 1
            ]
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
        width = len(header)
        position = {name: header.index(name) for name in bound + covariate_names}

        # each column's raw cell -> code table, and a label column's labels in code order
        tables: dict[str, dict[str, int]] = {name: {} for name in bound + covariate_names}
        labels_of: dict[str, list[str]] = {name: [] for name in [group, *covariate_names]}
        # each column's kept values, as per-block pieces; a label column's as codes
        kept: dict[str, list[np.ndarray]] = {name: [] for name in bound + covariate_names}
        dropped_by_reason = dict.fromkeys(_DROP_REASONS, 0)

        def load_block(first: int) -> int:
            """Read and parse the rows from file line ``first`` on; return how many."""
            text = handle.read(_BLOCK_CHARS)
            if text[-1:] != "\n":  # finish the last line, and a "\r\n" its "\r" may begin
                text += handle.readline()
            if not text:
                return 0
            quoted = '"' in text or "\0" in text
            if not quoted:  # end each line in "\n"; the file iterator also ends one at "\r"
                if "\r" in text:
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                if text[-1:] != "\n":
                    text += "\n"
            limit = csv.field_size_limit()
            if quoted or (len(text) > limit and max(map(len, text.split("\n"))) > limit):
                lines = list(io.StringIO(text, newline=""))
                del text  # one copy of the block's text at a time
                cells, extra, error = _csv_block(lines, handle, width, first, path)
            else:
                error = None
                cells, extra = _comma_block(text, width)
                del text
            n = len(extra)

            column = {name: cells[k::width] for name, k in position.items()}
            y = _encoded(column[outcome], tables[outcome], _binary_code, np.int8)
            g = _block_codes(column[group], tables[group], labels_of[group])
            parsed = {outcome: y, group: g}
            rejected = [(outcome, y == _BAD)]  # each bound column's rejected cells, in order
            has_value = np.zeros(n, dtype=bool)
            if score is not None:
                parsed[score], bad_score = _scores(column[score])
                rejected.append((score, bad_score))
                has_value |= ~np.isnan(parsed[score])
            if decision is not None:
                d = _encoded(column[decision], tables[decision], _binary_code, np.int8)
                parsed[decision] = d
                rejected.append((decision, d == _BAD))
                has_value |= d >= 0
            bad = np.logical_or.reduce([extra] + [mask for _, mask in rejected])
            if bad.any():  # the first bad row: extra cells, then outcome, score, decision
                i = int(bad.argmax())
                where = f"line {first + i} of {path!r}"
                if extra[i]:
                    raise InputError(f"{where} has more cells than the header")
                name = next(name for name, mask in rejected if mask[i])
                raise InputError(f"{where}: {_rejection(name, column[name][i], name != score)}")
            if error is not None:  # what ended the block, after the bad rows before it
                raise error

            blank = np.zeros(n, dtype=bool)
            for i in np.flatnonzero(y == _BLANK).tolist():
                blank[i] = not "".join(cells[i * width : (i + 1) * width]).strip()
            has_outcome = y >= 0
            named = g >= 0
            missing = (
                ~has_outcome & ~blank,
                has_outcome & ~named,
                has_outcome & named & ~has_value,
            )
            for reason, mask in zip(_DROP_REASONS, missing):
                dropped_by_reason[reason] += int(np.count_nonzero(mask))

            keep = has_outcome & named & has_value
            for name, values in parsed.items():
                _append(kept[name], values[keep])
            keep = None if keep.all() else keep.tolist()
            for name in covariate_names:
                picked = column[name] if keep is None else list(compress(column[name], keep))
                _append(kept[name], _block_codes(picked, tables[name], labels_of[name]))
            return n

        first = line + 1  # the file line of the block's first row
        try:
            while read := load_block(first):
                first += read
        except UnicodeDecodeError:
            raise InputError(f"cannot read {path!r}: not UTF-8 text") from None

    if not sum(map(len, kept[group])):
        raise InputError(f"no usable records in {path!r}")

    columns: dict[str, np.ndarray] = {}
    dropped: dict[str, float] = {}
    for name in covariate_names:
        labels = labels_of[name]  # in code order; code -1 reads the last value
        if not labels:
            dropped[name] = 1.0
            del kept[name]
            continue
        try:
            values = np.array([*map(float, labels), math.nan])
        except ValueError:
            values = np.array([*labels, None], dtype=object)
        # popped, so no covariate's block codes outlive its column's decoding
        columns[name] = values[np.concatenate(kept.pop(name))]

    labels = sorted(labels_of[group])
    renumber = np.empty(len(labels), dtype=np.intp)
    renumber[[tables[group][label] for label in labels]] = np.arange(len(labels))
    return AuditDataset(
        outcome=np.concatenate(kept[outcome]),
        group=GroupCodes(tuple(labels), renumber[np.concatenate(kept[group])]),
        score=np.concatenate(kept[score]) if score is not None else None,
        decision=np.concatenate(kept[decision]) if decision is not None else None,
        covariates=columns,
        dropped_covariates=dropped,
        dropped_by_reason=dropped_by_reason,
    )


def checked_max_missing(max_missing: float) -> float:
    """The largest missing fraction a covariate is imputed at; it must lie in [0, 1]."""
    if not 0.0 <= max_missing <= 1.0:
        raise InputError("max_missing outside [0, 1]")
    return max_missing


def impute_medians(
    dataset: AuditDataset, *, max_missing: float = MAX_MISSING_DEFAULT
) -> AuditDataset:
    """Fill missing numeric covariate cells with the column median.

    Columns whose missing fraction exceeds ``max_missing`` are dropped
    instead and recorded in ``dropped_covariates``. Imputed medians are
    recorded in ``imputation_log``. Non-missing cells are never altered,
    so re-running is the identity.
    """
    checked_max_missing(max_missing)
    columns = dict(dataset.covariates)
    log = dict(dataset.imputation_log)
    dropped = dict(dataset.dropped_covariates)
    changed = False
    for name, column in dataset.covariates.items():
        if column.dtype.kind != "f":
            continue
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
        present = column[~missing]
        low, high = (present.shape[0] - 1) // 2, present.shape[0] // 2
        # np.median's partition and mean, bit for bit; np.median imports numpy.ma
        median = float(np.partition(present, (low, high))[low : high + 1].mean())
        filled = column.copy()
        filled[missing] = median
        columns[name] = filled
        log[name] = median
    if not changed:
        return dataset
    return replace(
        dataset,
        group=dataset._group,
        covariates=columns,
        imputation_log=log,
        dropped_covariates=dropped,
    )


def checked_threshold(cutoff: float) -> float:
    """A decision cutoff as a float; it must lie in [0, 1]."""
    if not 0.0 <= float(cutoff) <= 1.0:
        raise InputError("threshold outside [0, 1]")
    return float(cutoff)


def _missing_scores(dataset: AuditDataset) -> str:
    """Why some record has no score (no score column, or blank cells); "" when none lacks one."""
    if dataset.score is None:
        return "risk scores not loaded"
    return "" if dataset.has_scores else "risk scores missing for some records"


def _require_decisions(dataset: AuditDataset) -> None:
    """Refuse a dataset with a record that has no decision, saying how to get one."""
    if dataset.has_decisions:
        return
    if dataset.decision is None:
        raise InputError("no decisions: bind a decision column or apply a threshold")
    missing = int((dataset.decision < 0).sum())
    raise InputError(
        f"{missing} of {dataset.n} records have no decision; "
        "a threshold derives decisions from the scores"
    )


def apply_threshold(dataset: AuditDataset, cutoff: float) -> AuditDataset:
    """Derive decisions from scores: positive iff the score exceeds ``cutoff``.

    Requires every record to carry a score. Existing decisions are
    replaced. Raising the cutoff can only turn positives into negatives,
    and applying the same cutoff twice is the identity.
    """
    cutoff = checked_threshold(cutoff)
    if missing := _missing_scores(dataset):
        raise InputError(f"cannot apply a threshold: {missing}")
    return replace(
        dataset,
        group=dataset._group,
        decision=(dataset.score > cutoff).astype(np.int8),
        threshold=cutoff,
    )


def filter_condition(
    dataset: AuditDataset, predicate: ConditionPredicate | str
) -> AuditDataset:
    """Keep only records matching the predicate.

    Errors if the result is empty or if any group present before the
    filter loses all of its records, since downstream comparisons expect
    every group to survive. A stratum is built once per dataset for each
    tuple of clauses, however the condition was spaced, and returned again
    on later calls.
    """
    if isinstance(predicate, str):
        predicate = ConditionPredicate.parse(predicate)
    key = ("stratum", predicate.clauses)
    if key in dataset._memo:
        return dataset._memo[key]
    keep = predicate.mask(dataset)
    if not keep.any():
        raise InputError(f"condition {str(predicate)!r} matches no records")
    labels, codes = dataset._group
    counts = np.bincount(codes[keep], minlength=len(labels))
    if not counts.all():  # name the first emptied group in sorted order
        label = labels[int(counts.argmin())]
        raise InputError(f"condition {str(predicate)!r} leaves group {label!r} empty")
    stratum = dataset._memo[key] = dataset.take(np.flatnonzero(keep))
    return stratum
