"""Deterministic audit workloads: the CSV files and the flags to audit them.

Everything here depends on numpy only, never on fairaudit, so the arrays
returned next to each CSV serve as an independent oracle for the checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WARDS = ("general", "icu", "maternity", "surgery")
SCORE_SCALE = 1_000_000  # scores are written with six decimals
MISSING_AGE = 0.03


@dataclass(frozen=True)
class Workload:
    """One fixed audit: data shape plus the CLI flags it runs with."""

    name: str
    rows: int
    groups: int
    flags: tuple[str, ...]
    format: str
    why: str

    def argv(self, csv_path: str) -> list[str]:
        return [
            "audit",
            "--input", csv_path,
            "--outcome", "outcome",
            "--group", "group",
            "--score", "score",
            "--threshold", "0.5",
            "--epsilon", "0.05",
            "--format", self.format,
            *self.flags,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_boot",
            rows=800,
            groups=2,
            flags=(
                "--condition", "senior=age >= 60",
                "--bootstrap", "1000",
                "--workers", "1",
            ),
            format="json",
            why="800 rows x 2 groups, B=1000: the per-iteration bootstrap dominates, "
            "load and point estimates are negligible; isolates inference dispatch cost",
        ),
        Workload(
            name="large_boot",
            rows=50_000,
            groups=6,
            flags=(
                "--condition", "senior=age >= 60",
                "--bootstrap", "200",
                "--workers", "2",
            ),
            format="json",
            why="50k rows x 6 groups, B=200, 2 workers: bootstrap array gathers at large n "
            "plus point estimates and load; the only workload that runs the thread pool",
        ),
        Workload(
            name="large_scan",
            rows=50_000,
            groups=12,
            flags=(
                "--criteria", "all",
                "--bins", "20",
                "--condition", "senior=age >= 60",
                "--condition", "icu=ward == 'icu'",
            ),
            format="markdown",
            why="50k rows x 12 groups, no bootstrap, all criteria, markdown: point "
            "estimates, meta-metrics and condition filtering; inference is bypassed",
        ),
    )
}


@dataclass(frozen=True)
class Generated:
    """The rows written to a CSV, as arrays over the rows the loader keeps.

    ``score`` is exact: the CSV holds ``score_units / SCORE_SCALE`` with six
    decimals, which parses to the same double. ``age`` is NaN where the cell
    was left blank. ``n_dropped`` counts the malformed rows written among
    them; blank lines are written too and are neither kept nor counted.
    """

    labels: tuple[str, ...]
    group: np.ndarray  # int codes into labels
    outcome: np.ndarray
    score: np.ndarray
    age: np.ndarray
    ward: np.ndarray  # int codes into WARDS
    n_dropped: int

    @property
    def n(self) -> int:
        return int(self.outcome.shape[0])


def generate(workload: Workload, seed: int, path: str) -> Generated:
    """Write the workload's CSV to ``path`` and return what was written.

    Groups get unequal sizes from Dirichlet weights, outcome rates differ by
    group, and scores are noisy but informative. The weights are floored at
    70% of an equal share and the score signal is moderate, so that each
    group's confusion table keeps every cell well populated: bootstrap
    resamples then stay defined and no audit of a workload fails. About 3% of
    ``age`` cells are blank so the audit imputes them, ``ward`` is
    categorical, and a few malformed rows (blank outcome, blank group,
    blank score, truncated) must be dropped by the loader.
    """
    rng = np.random.default_rng([seed, workload.rows, workload.groups])
    n, k = workload.rows, workload.groups
    labels = tuple(f"g{i:02d}" for i in range(k))

    weights = 0.7 / k + 0.3 * rng.dirichlet(np.full(k, 2.0))
    group = rng.choice(k, size=n, p=weights / weights.sum())
    group[:k] = np.arange(k)  # every label present even at tiny sizes

    base_rate = rng.uniform(0.3, 0.5, size=k)
    outcome = (rng.random(n) < base_rate[group]).astype(np.int8)
    shift = rng.normal(0.0, 0.2, size=k)
    logit = 1.6 * (outcome - 0.5) + shift[group] + rng.normal(0.0, 1.3, size=n)
    score_units = np.rint(SCORE_SCALE / (1.0 + np.exp(-logit))).astype(np.int64)
    score = score_units / SCORE_SCALE

    age = rng.integers(18, 96, size=n).astype(np.float64)
    age[rng.random(n) < MISSING_AGE] = np.nan
    ward = rng.choice(len(WARDS), size=n, p=(0.55, 0.15, 0.1, 0.2))

    lines = ["outcome,group,score,age,ward"]
    for y, g, s, a, w in zip(
        outcome.tolist(), group.tolist(), score_units.tolist(), age.tolist(), ward.tolist()
    ):
        age_cell = "" if a != a else str(int(a))
        lines.append(f"{y},{labels[g]},{s / SCORE_SCALE:.6f},{age_cell},{WARDS[w]}")

    malformed = [
        ",g00,0.250000,40,general",  # blank outcome
        "1,,0.750000,50,icu",  # blank group
        "0,g00,,61,surgery",  # blank score and no decision column
        "1,g00",  # truncated row
    ]
    n_malformed = max(4, n // 10_000)
    body = lines[1:]
    slots = np.sort(rng.choice(len(body) + 1, size=n_malformed + 2, replace=True))
    out = [lines[0]]
    cursor = 0
    for i, slot in enumerate(slots.tolist()):
        out.extend(body[cursor:slot])
        cursor = slot
        out.append("" if i >= n_malformed else malformed[i % len(malformed)])
    out.extend(body[cursor:])
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(out) + "\n")

    return Generated(
        labels=labels,
        group=group,
        outcome=outcome,
        score=score,
        age=age,
        ward=ward,
        n_dropped=n_malformed,
    )
