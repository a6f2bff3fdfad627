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
from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import InputError

if TYPE_CHECKING:
    from .dataset import AuditDataset

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<op>>=|<=|==|!=|>|<)
      | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
      | (?P<string>"[^"]*"|'[^']*')
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)

_NUMERIC_OPS = {
    ">": np.greater,
    ">=": np.greater_equal,
    "<": np.less,
    "<=": np.less_equal,
    "==": np.equal,
    "!=": np.not_equal,
}


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == match.start():
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise InputError(f"cannot parse condition near {remainder[:20]!r}")
        pos = match.end()
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
    return tokens


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
        tokens = _tokenize(text)
        if not tokens:
            raise InputError("empty condition expression")
        clauses = []
        pos = 0
        while True:
            if pos >= len(tokens) or tokens[pos][0] != "name":
                raise InputError(f"expected a covariate name in condition {text!r}")
            name = tokens[pos][1]
            if name.upper() == "AND":
                raise InputError(f"misplaced AND in condition {text!r}")
            pos += 1
            if pos >= len(tokens) or tokens[pos][0] != "op":
                raise InputError(f"expected a comparison operator after {name!r}")
            op = tokens[pos][1]
            pos += 1
            if pos >= len(tokens):
                raise InputError(f"missing literal after {name} {op}")
            kind, raw = tokens[pos]
            if kind == "number":
                value: float | str = float(raw)
            elif kind == "string":
                value = raw[1:-1]
            else:
                raise InputError(
                    f"expected a number or quoted string after {name} {op}, got {raw!r}"
                )
            if isinstance(value, str) and op not in ("==", "!="):
                raise InputError(f"operator {op!r} needs a numeric literal")
            clauses.append(Clause(name, op, value))
            pos += 1
            if pos == len(tokens):
                break
            kind, raw = tokens[pos]
            if kind != "name" or raw.upper() != "AND":
                raise InputError(f"expected AND between clauses in condition {text!r}")
            pos += 1
        return cls(clauses=tuple(clauses), source=text.strip())

    def mask(self, dataset: "AuditDataset") -> np.ndarray:
        """Boolean row mask over the dataset; missing values never match."""
        keep = np.ones(dataset.n, dtype=bool)
        for clause in self.clauses:
            if clause.name not in dataset.covariates:
                raise InputError(f"unknown covariate in condition: {clause.name!r}")
            keep &= _clause_mask(clause, dataset.covariates[clause.name])
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
            hit = _NUMERIC_OPS[clause.op](column, clause.value)
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
    valid = np.array([v is not None for v in column], dtype=bool)
    eq = np.array([v == clause.value for v in column], dtype=bool)
    hit = eq if clause.op == "==" else ~eq
    return hit & valid
