"""Predicate expressions for conditioning an audit on covariates.

The grammar is a conjunction of comparison clauses::

    age >= 60
    age >= 60 AND stage == 2
    ward == "icu" AND age < 75

Each clause compares one covariate against a numeric or quoted string
literal with one of ``> >= < <= == !=``. Clauses are joined with ``AND``
(case-insensitive); there is no OR and no nesting. Missing covariate
values never satisfy a clause, including ``!=``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .dataset import AuditDataset

_CLAUSE = re.compile(
    r"""\s*(?P<name>[A-Za-z_][A-Za-z0-9_]*)
        \s*(?P<op>>=|<=|==|!=|>|<)
        \s*(?:(?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)|(?P<string>"[^"]*"|'[^']*'))
        \s*""",
    re.VERBOSE,
)
_AND = re.compile(r"AND\b", re.IGNORECASE)

_OPS = {
    ">": np.greater,
    ">=": np.greater_equal,
    "<": np.less,
    "<=": np.less_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


@dataclass(frozen=True)
class Clause:
    """A single comparison: covariate name, operator, literal value."""

    name: str
    op: str
    value: float | str


@dataclass(frozen=True)
class ConditionPredicate:
    """Parsed conjunction of clauses, evaluated as a row mask over a dataset.

    An empty clause tuple matches everything.
    """

    clauses: tuple[Clause, ...]
    source: str = ""

    @classmethod
    def parse(cls, text: str) -> "ConditionPredicate":
        if not text.strip():
            raise InputError("empty condition expression")
        clauses = []
        pos = 0
        while True:
            match = _CLAUSE.match(text, pos)
            if match is None or match["name"].upper() == "AND":
                break
            name, op, number, string = match.group("name", "op", "number", "string")
            if string is not None and op not in ("==", "!="):
                raise InputError(f"operator {op!r} needs a numeric literal")
            clauses.append(Clause(name, op, float(number) if string is None else string[1:-1]))
            pos = match.end()
            if pos == len(text):
                return cls(clauses=tuple(clauses), source=text.strip())
            match = _AND.match(text, pos)
            if match is None:
                break
            pos = match.end()
        rest = text[pos:].strip()
        near = repr(rest[:20]) if rest else "its end"
        raise InputError(f"cannot parse condition {text!r} near {near}")

    def mask(self, dataset: "AuditDataset") -> np.ndarray:
        """Boolean row mask over the dataset; missing values never match."""
        keep = np.ones(dataset.n, dtype=bool)
        for clause in self.clauses:
            column = dataset._covariate(clause.name)
            keep &= _clause_mask(clause, column)
        return keep

    def __str__(self) -> str:
        return self.source or " AND ".join(
            f"{c.name} {c.op} {c.value!r}" for c in self.clauses
        )


def _clause_mask(clause: Clause, column: np.ndarray) -> np.ndarray:
    if column.dtype.kind == "f":
        if isinstance(clause.value, str):
            raise InputError(
                f"condition on {clause.name!r} compares a string against a numeric column"
            )
        valid = ~np.isnan(column)
        with np.errstate(invalid="ignore"):
            hit = _OPS[clause.op](column, clause.value)
        return hit & valid
    # categorical column: equality tests only
    if clause.op not in ("==", "!="):
        raise InputError(
            f"operator {clause.op!r} is not defined for categorical covariate {clause.name!r}"
        )
    if not isinstance(clause.value, str):
        raise InputError(
            f"condition on {clause.name!r} compares a number against a categorical column"
        )
    valid = column != None  # noqa: E711 -- elementwise over the object array
    return _OPS[clause.op](column, clause.value) & valid
