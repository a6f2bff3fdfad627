"""Correctness checks on one audit's output, against the generator's arrays.

Each check returns a list of failure messages; an empty list means the
audit passed. The oracle below is numpy arithmetic on the arrays the
generator wrote, written without reference to fairaudit's own formulas.
"""

from __future__ import annotations

import json
import re

import numpy as np

from workloads import Generated

TOLERANCE = 1e-9
THRESHOLD = 0.5


def _ratio(numerator: float, denominator: float):
    return None if denominator == 0 else numerator / denominator


def oracle_metrics(gen: Generated, code: int) -> dict[str, float | None]:
    """Every per-group metric the audits report; None where undefined."""
    rows = gen.group == code
    y = gen.outcome[rows] == 1
    s = gen.score[rows]
    d = s > THRESHOLD
    tp = int(np.count_nonzero(y & d))
    fp = int(np.count_nonzero(~y & d))
    tn = int(np.count_nonzero(~y & ~d))
    fn = int(np.count_nonzero(y & ~d))
    n = tp + fp + tn + fn
    return {
        "positive_rate": (tp + fp) / n,
        "prevalence": (tp + fn) / n,
        "tpr": _ratio(tp, tp + fn),
        "fnr": _ratio(fn, tp + fn),
        "fpr": _ratio(fp, fp + tn),
        "tnr": _ratio(tn, fp + tn),
        "ppv": _ratio(tp, tp + fp),
        "npv": _ratio(tn, tn + fn),
        "accuracy": (tp + tn) / n,
        "fn_fp_ratio": _ratio(fn, fp),
        "brier_score": float(np.sum((s - y) ** 2)) / n,
        "mean_absolute_error": float(np.sum(np.abs(s - y))) / n,
        "mean_score_pos": _ratio(float(np.sum(s[y])), int(np.count_nonzero(y))),
        "mean_score_neg": _ratio(float(np.sum(s[~y])), int(np.count_nonzero(~y))),
    }


class Oracle:
    """Expected facts about one generated dataset, computed once per run."""

    def __init__(self, gen: Generated):
        self.gen = gen
        self.sizes = {
            label: int(np.count_nonzero(gen.group == code))
            for code, label in enumerate(gen.labels)
        }
        self.metrics = {label: oracle_metrics(gen, code) for code, label in enumerate(gen.labels)}
        observed = gen.age[~np.isnan(gen.age)]
        self.age_median = float(np.median(observed))
        self.pairs = [(gen.labels[0], other) for other in gen.labels[1:]]


def _close(reported, expected) -> bool:
    if expected is None:
        return reported == "UNDEFINED"
    return isinstance(reported, (int, float)) and abs(reported - expected) <= TOLERANCE


def check_json(text: str, oracle: Oracle, validator, bootstrap: bool) -> list[str]:
    """Schema, dataset counts, pair layout and every non-conditional value."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    failures = [f"schema: {e.message}" for e in validator.iter_errors(doc)]
    if failures:
        return failures[:5]

    dataset = doc["dataset"]
    if dataset["n"] != oracle.gen.n:
        failures.append(f"kept {dataset['n']} rows, generator wrote {oracle.gen.n}")
    if dataset["n_dropped"] != oracle.gen.n_dropped:
        failures.append(
            f"dropped {dataset['n_dropped']} rows, generator wrote {oracle.gen.n_dropped} malformed"
        )
    if dataset["groups"] != oracle.sizes:
        failures.append("group sizes differ from the generator's")
    if not _close(dataset.get("imputed_medians", {}).get("age"), oracle.age_median):
        failures.append("imputed age median differs from the generator's")

    pairs = [(p["group_a"], p["group_b"]) for p in doc["fairness"]]
    if pairs != oracle.pairs:
        failures.append(f"pairs {pairs} differ from {oracle.pairs}")
        return failures

    checked = 0
    for pair in doc["fairness"]:
        for row in pair["rows"]:
            where = f"{row['group_a']} vs {row['group_b']} {row['criterion']}/{row['metric']}"
            if row["status"] != "evaluated":
                failures.append(f"{where}: status {row['status']}")
                continue
            if bootstrap and row["ci_diff"] is None and row["diff"] != "UNDEFINED":
                failures.append(f"{where}: no bootstrap interval")
            if row["condition"] is not None or row["metric"] is None:
                continue
            for side in ("a", "b"):
                expected = oracle.metrics[row[f"group_{side}"]][row["metric"]]
                if not _close(row[f"value_{side}"], expected):
                    failures.append(
                        f"{where}: value_{side} {row[f'value_{side}']!r} != oracle {expected!r}"
                    )
            checked += 1
    if checked == 0:
        failures.append("no evaluated non-conditional row to check")
    return failures


_PAIR_HEADING = re.compile(r"^## (\S+) vs (\S+)$", re.MULTILINE)


def check_markdown(text: str, oracle: Oracle) -> list[str]:
    """Dataset summary lines and one section per group pair."""
    failures = []
    gen = oracle.gen
    expected_lines = (
        f"- records: {gen.n} kept, {gen.n_dropped} dropped",
        "- groups: " + ", ".join(f"{k} (n={v})" for k, v in oracle.sizes.items()),
        f"- imputed medians: age={oracle.age_median:.6g}",
    )
    lines = set(text.splitlines())
    for line in expected_lines:
        if line not in lines:
            failures.append(f"missing line {line!r}")
    pairs = _PAIR_HEADING.findall(text)
    if pairs != oracle.pairs:
        failures.append(f"{len(pairs)} pair sections, expected {len(oracle.pairs)}")
    return failures


def bootstrap_kept_frac(text: str) -> float:
    """Share of bootstrap iterations kept over every interval in a JSON report.

    1.0 when the report holds no interval.
    """
    doc = json.loads(text)
    bootstrap = doc["request"]["bootstrap"]
    if bootstrap is None:
        return 1.0
    discarded = attempted = 0
    for pair in doc["fairness"]:
        for row in pair["rows"]:
            for key in ("ci_diff", "ci_ratio"):
                if row[key] is not None:
                    discarded += row[key]["discarded"]
                    attempted += bootstrap["iterations"]
    if attempted == 0:
        return 1.0
    return 1.0 - discarded / attempted
