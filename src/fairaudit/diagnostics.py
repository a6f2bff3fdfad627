"""Structural diagnostics: criteria incompatibilities and epsilon checks.

Several fairness criteria cannot hold simultaneously except in edge
cases (equal base rates, a trivial predictor, a perfect predictor).
:func:`incompatibility_verdict` inspects the data for those edge cases
and flags the criterion pairs that are mutually exclusive on it, so a
report can say "these two families could not both have passed here"
instead of letting the reader over-interpret a failed pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from .dataset import AuditDataset, _require_decisions
from .errors import InputError
from .fairness import FairnessReport, RowStatus
from .metrics import MetricId, _cells, group_metric, is_defined

DEFAULT_TEST_LEVEL = 0.05
MIN_EXPECTED_COUNT = 5.0


class IncompatiblePair(Enum):
    INDEPENDENCE_SUFFICIENCY = "independence_sufficiency"
    INDEPENDENCE_SEPARATION = "independence_separation"
    SEPARATION_SUFFICIENCY = "separation_sufficiency"


class IndependenceTest(NamedTuple):
    """Pearson chi-square test of outcome against group membership.

    ``min_expected`` is the smallest expected cell count; below
    :data:`MIN_EXPECTED_COUNT` the chi-square approximation is unreliable.
    """

    statistic: float
    p_value: float
    reject: bool
    min_expected: float


def _chi2_survival(statistic: float, dof: int) -> float:
    """Upper tail of the chi-square distribution at an integer dof.

    Sums the closed form Q(dof/2, statistic/2) (Abramowitz & Stegun
    26.4.4-26.4.5): ``erfc`` starts the series for odd dof, and every
    term is taken in log space, so a large statistic underflows to 0.0
    instead of overflowing.
    """
    if dof == 0 or statistic <= 0.0:
        return 1.0
    y = statistic / 2.0
    half = dof / 2.0
    if dof % 2:
        total, a = math.erfc(math.sqrt(y)), 0.5
    else:
        total, a = 0.0, 0.0
    log_y = math.log(y)
    while a < half:
        total += math.exp(a * log_y - y - math.lgamma(a + 1.0))
        a += 1.0
    return total


def checked_test_level(level: float) -> float:
    """The independence test level; it must lie in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise InputError("test level outside (0, 1)")
    return level


def independence_test(
    dataset: AuditDataset, level: float = DEFAULT_TEST_LEVEL
) -> IndependenceTest:
    """Chi-square test of whether outcome rates differ across groups.

    Uses the Pearson statistic without continuity correction. The
    p-value is the exact chi-square tail for the table's integer degrees
    of freedom, computed with the standard library.
    """
    checked_test_level(level)
    labels = dataset.groups
    sizes = np.array([_cells(dataset, g).sizes for g in labels])
    # cells 2 and 3 hold y = 1, cells 0 and 1 hold y = 0
    table = np.column_stack([sizes[:, 2:].sum(axis=1), sizes[:, :2].sum(axis=1)])
    if (table.sum(axis=0) == 0).any():
        raise InputError("independence test needs both outcome values present")
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    statistic = float(((table - expected) ** 2 / expected).sum())
    p_value = _chi2_survival(statistic, len(labels) - 1)
    return IndependenceTest(
        statistic=statistic,
        p_value=p_value,
        reject=bool(p_value < level),
        min_expected=float(expected.min()),
    )


@dataclass(frozen=True)
class IncompatibilityVerdict:
    """Which criterion families are mutually exclusive on this data.

    ``prevalence`` is the observed outcome rate of each group, keyed by
    sorted label.
    ``informative`` is True when the pooled true positive rate differs
    from the pooled false positive rate, so decisions depend on the
    outcome (a constant predictor's two rates are equal); ``imperfect``
    when at least one record is misclassified. Flags require rejecting
    outcome/group independence, plus informativeness for the
    independence/separation pair and imperfection for the
    separation/sufficiency pair. ``notes`` carries caveats on the test,
    such as expected cell counts too small for the chi-square
    approximation.
    """

    prevalence: Mapping[str, float]
    statistic: float
    p_value: float
    reject_independence: bool
    informative: bool
    imperfect: bool
    flagged: tuple[IncompatiblePair, ...]
    level: float = DEFAULT_TEST_LEVEL
    notes: tuple[str, ...] = ()


def incompatibility_verdict(
    dataset: AuditDataset, level: float = DEFAULT_TEST_LEVEL
) -> IncompatibilityVerdict:
    """Flag criterion pairs that cannot both hold on this dataset."""
    _require_decisions(dataset)
    test = independence_test(dataset, level)
    tn, fp, fn, tp = sum(_cells(dataset, label).sizes for label in dataset.groups).tolist()
    informative = tp * (fp + tn) != fp * (tp + fn)  # pooled TPR != FPR
    imperfect = fp + fn > 0
    flagged = []
    if test.reject:
        flagged.append(IncompatiblePair.INDEPENDENCE_SUFFICIENCY)
        if informative:
            flagged.append(IncompatiblePair.INDEPENDENCE_SEPARATION)
        if imperfect:
            flagged.append(IncompatiblePair.SEPARATION_SUFFICIENCY)
    notes = []
    if test.min_expected < MIN_EXPECTED_COUNT:
        notes.append(
            "chi-square approximation is unreliable: the smallest expected cell "
            f"count is {test.min_expected:.3g}, below {MIN_EXPECTED_COUNT:g}"
        )
    return IncompatibilityVerdict(
        prevalence={
            label: float(group_metric(dataset, label, MetricId.PREVALENCE))
            for label in dataset.groups
        },
        statistic=test.statistic,
        p_value=test.p_value,
        reject_independence=test.reject,
        informative=informative,
        imperfect=imperfect,
        flagged=tuple(flagged),
        level=level,
        notes=tuple(notes),
    )


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    UNDEFINED = "UNDEFINED"


@dataclass(frozen=True)
class EpsilonAssessment:
    """Approximate-fairness verdicts at one tolerance.

    A criterion passes when every one of its comparison rows has a
    defined difference strictly smaller than epsilon in absolute value.
    Any undefined or unevaluated component makes the verdict UNDEFINED
    rather than silently passing or failing.
    """

    epsilon: float
    group_a: str
    group_b: str
    verdicts: Mapping[str, Verdict]


def _row_key(criterion_value: str, condition: str | None) -> str:
    if condition is None:
        return criterion_value
    return f"{criterion_value}[{condition}]"


def checked_epsilon(epsilon: float) -> float:
    """An approximate-fairness tolerance on |diff|; it must be positive and finite."""
    if not 0.0 < epsilon < math.inf:
        raise InputError("epsilon must be positive and finite")
    return epsilon


def epsilon_assessment(report: FairnessReport, epsilon: float) -> EpsilonAssessment:
    """Judge every criterion in a report against a tolerance on |diff|."""
    checked_epsilon(epsilon)
    grouped: dict[str, list] = {}
    for row in report.rows:
        grouped.setdefault(_row_key(row.criterion.value, row.condition), []).append(row)
    verdicts: dict[str, Verdict] = {}
    for key, rows in grouped.items():
        verdict = Verdict.PASS
        for row in rows:
            if row.status is not RowStatus.EVALUATED or not is_defined(row.diff):
                verdict = Verdict.UNDEFINED
                break
            if not abs(row.diff) < epsilon:
                verdict = Verdict.FAIL
        verdicts[key] = verdict
    return EpsilonAssessment(
        epsilon=float(epsilon),
        group_a=report.group_a,
        group_b=report.group_b,
        verdicts=verdicts,
    )
