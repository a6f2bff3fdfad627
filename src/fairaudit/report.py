"""Audit report assembly: a JSON-ready document and a Markdown view.

The JSON document is the source of truth; Markdown is rendered from the
document, so the two can never disagree on a number. Undefined values
are serialized as the string "UNDEFINED" (JSON has no NaN) and rendered
as an em-free dash in Markdown tables.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .dataset import AuditDataset
from .diagnostics import EpsilonAssessment, IncompatibilityVerdict
from .errors import InputError
from .fairness import CRITERION_LABELS, Comparison, FairnessReport, criterion_components
from .inference import Interval
from .metrics import MetricId, is_defined
from .multigroup import MetaMetricResult

TOOL_NAME = "fairaudit"

UNDEFINED_TOKEN = "UNDEFINED"
DASH = "-"

# How the Markdown report names each reason a row was dropped.
_DROP_REASON_TEXT = {
    "outcome": "an outcome",
    "group": "a group label",
    "score_and_decision": "a score or decision",
}


def to_jsonable(value: Any) -> Any:
    """Coerce one leaf value into something json.dumps accepts."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else UNDEFINED_TOKEN
    if not is_defined(value):
        return UNDEFINED_TOKEN
    raise TypeError(f"cannot serialize {value!r}")


def _interval_block(interval: Interval | None) -> dict | None:
    if interval is None:
        return None
    return {
        "lower": to_jsonable(interval.lower),
        "upper": to_jsonable(interval.upper),
        "method": interval.method.value,
        "discarded": interval.discarded,
    }


def _row_block(row: Comparison) -> dict:
    return {
        "criterion": row.criterion.value,
        "label": CRITERION_LABELS[row.criterion],
        "category": row.category.value,
        "metric": row.metric.value if row.metric is not None else None,
        "condition": row.condition,
        "group_a": row.group_a,
        "group_b": row.group_b,
        "value_a": to_jsonable(row.value_a),
        "value_b": to_jsonable(row.value_b),
        "diff": to_jsonable(row.diff),
        "ratio": to_jsonable(row.ratio),
        "ci_diff": _interval_block(row.ci_diff),
        "ci_ratio": _interval_block(row.ci_ratio),
        "status": row.status.value,
        "notes": list(row.notes),
    }


def _calibration_block(report: FairnessReport) -> dict | None:
    comparison = report.calibration
    if comparison is None:
        return None
    curves = {}
    for curve in (comparison.curve_a, comparison.curve_b):
        curves[curve.group] = {
            "counts": curve.counts.tolist(),
            "mean_score": [to_jsonable(v) for v in curve.mean_score.tolist()],
            "observed_rate": [to_jsonable(v) for v in curve.observed_rate.tolist()],
            "sparse": curve.sparse.tolist(),
        }
    return {
        "bins": comparison.curve_a.bins,
        "edges": comparison.curve_a.edges.tolist(),
        "curves": curves,
        "within_gap": {
            comparison.curve_a.group: to_jsonable(comparison.gap_a),
            comparison.curve_b.group: to_jsonable(comparison.gap_b),
        },
        "between_gap": to_jsonable(comparison.between_gap),
    }


def _pair_block(report: FairnessReport) -> dict:
    return {
        "group_a": report.group_a,
        "group_b": report.group_b,
        "rows": [_row_block(row) for row in report.rows],
        "calibration": _calibration_block(report),
        "notes": list(report.notes),
    }


def _meta_block(result: MetaMetricResult | Mapping) -> dict:
    if isinstance(result, Mapping):
        return dict(result)
    return {
        "kind": result.kind.value,
        "metric": result.metric.value if result.metric is not None else None,
        "exponent": to_jsonable(result.exponent),
        "groups": list(result.groups) if result.groups is not None else None,
        "group_values": [to_jsonable(v) for v in result.group_values],
        "value": to_jsonable(result.value),
    }


def _diagnostics_block(verdict: IncompatibilityVerdict | Mapping | None) -> dict | None:
    if verdict is None:
        return None
    if isinstance(verdict, Mapping):
        return dict(verdict)
    return {
        "prevalence": {k: to_jsonable(v) for k, v in verdict.prevalence.items()},
        "statistic": to_jsonable(verdict.statistic),
        "p_value": to_jsonable(verdict.p_value),
        "level": to_jsonable(verdict.level),
        "reject_independence": verdict.reject_independence,
        "informative": verdict.informative,
        "imperfect": verdict.imperfect,
        "flagged": [pair.value for pair in verdict.flagged],
        "notes": list(verdict.notes),
    }


def _assessment_block(assessment: EpsilonAssessment) -> dict:
    return {
        "epsilon": to_jsonable(assessment.epsilon),
        "group_a": assessment.group_a,
        "group_b": assessment.group_b,
        "verdicts": {key: verdict.value for key, verdict in assessment.verdicts.items()},
    }


def build_document(
    *,
    request: Mapping | None = None,
    dataset: AuditDataset | None = None,
    reports: Sequence[FairnessReport] = (),
    meta_results: Sequence[MetaMetricResult | Mapping] = (),
    diagnostics: IncompatibilityVerdict | Mapping | None = None,
    assessments: Sequence[EpsilonAssessment] = (),
) -> dict:
    """Assemble the canonical audit document with a stable key order;
    ``tool.version`` is the installed ``fairaudit.__version__``."""
    dataset_block = None
    if dataset is not None:
        dataset_block = {
            "n": dataset.n,
            "n_dropped": dataset.n_dropped,
            "dropped_by_reason": dict(dataset.dropped_by_reason),
            "threshold": to_jsonable(dataset.threshold),
            "groups": dataset.group_sizes(),
            "imputed_medians": {k: to_jsonable(v) for k, v in dataset.imputation_log.items()},
            "dropped_covariates": {
                k: to_jsonable(v) for k, v in dataset.dropped_covariates.items()
            },
        }
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "request": dict(request) if request is not None else None,
        "dataset": dataset_block,
        "fairness": [_pair_block(report) for report in reports],
        "meta_metrics": [_meta_block(result) for result in meta_results],
        "diagnostics": _diagnostics_block(diagnostics),
        "epsilon_assessments": [_assessment_block(a) for a in assessments],
    }


def render_json(document: Mapping) -> str:
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def load_report_schema() -> dict:
    """The JSON schema the audit document conforms to."""
    text = resources.files(__package__).joinpath("report_schema.json").read_text("utf-8")
    return json.loads(text)


def format_percent(value: Any) -> str:
    """Percent cell: 0.17 renders as 17%."""
    if not _is_number(value):
        return DASH
    text = f"{float(value) * 100:.0f}%"
    return "0%" if text == "-0%" else text


def format_plain(value: Any) -> str:
    """Ratio cell: two decimals with trailing zeros stripped."""
    if not _is_number(value):
        return DASH
    text = f"{float(value):.2f}"
    text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def format_general(value: Any) -> str:
    if not _is_number(value):
        return DASH
    return f"{float(value):.6g}"


def _format_level(alpha: float) -> str:
    """The confidence level ``1 - alpha`` in percent, to six significant
    digits or as many more as a level below 100 takes not to read 100."""
    level = 100 * (1 - alpha)
    digits = 6
    while (text := f"{level:.{digits}g}") == "100" and level < 100:
        digits += 1
    return text


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _format_value(value: Any, percent: bool) -> str:
    return format_percent(value) if percent else format_plain(value)


def _format_interval(block: Mapping | None, percent: bool) -> str:
    if block is None:
        return DASH
    lower = _format_value(block.get("lower"), percent)
    upper = _format_value(block.get("upper"), percent)
    return f"[{lower}, {upper}]"


def _row_title(row: Mapping) -> str:
    label = row.get("label") or row.get("criterion", "")
    condition = row.get("condition")
    if condition:
        return f"{label} ({condition})"
    criterion = row.get("criterion")
    if criterion is not None:
        try:
            components = criterion_components(criterion)
        except InputError:
            components = ()
        if len(components) > 1 and row.get("metric"):
            return f"{label} ({row['metric']})"
    return label


def _markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    """Table lines; a ``|`` inside a cell (say, in a group label) is escaped."""

    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(cell.replace("|", r"\|") for cell in cells) + " |"

    return [line(header), line(["---"] * len(header)), *map(line, rows)]


def _pair_section(pair: Mapping, interval: str) -> list[str]:
    group_a = pair.get("group_a", "A")
    group_b = pair.get("group_b", "B")
    lines = [f"## {group_a} vs {group_b}", ""]
    header = [
        "Criterion",
        "Category",
        group_a,
        group_b,
        "Difference",
        interval,
        "Ratio",
        interval,
    ]
    body = []
    notes = []
    for row in pair.get("rows", []):
        # every metric reads as a percentage but the count ratio
        percent = row.get("metric") != MetricId.FN_FP_RATIO.value
        body.append(
            [
                _row_title(row),
                row.get("category", ""),
                _format_value(row.get("value_a"), percent),
                _format_value(row.get("value_b"), percent),
                _format_value(row.get("diff"), percent),
                _format_interval(row.get("ci_diff"), percent),
                format_plain(row.get("ratio")),
                _format_interval(row.get("ci_ratio"), percent=False),
            ]
        )
        for note in row.get("notes", []):
            notes.append(f"- {_row_title(row)}: {note}")
    lines.extend(_markdown_table(header, body))
    calibration = pair.get("calibration")
    if calibration:
        lines.append("")
        lines.append("### Calibration")
        lines.append("")
        for label, gap in calibration.get("within_gap", {}).items():
            lines.append(f"- largest within-bin gap for {label}: {format_general(gap)}")
        lines.append(
            f"- largest between-group gap on shared bins: "
            f"{format_general(calibration.get('between_gap'))}"
        )
    for note in pair.get("notes", []):
        notes.append(f"- {note}")
    if notes:
        lines.append("")
        lines.extend(notes)
    lines.append("")
    return lines


def emit_markdown(document: Mapping) -> str:
    """Render the audit document as a Markdown report."""
    lines = ["# Fairness audit", ""]

    dataset = document.get("dataset")
    if dataset:
        sizes = ", ".join(f"{k} (n={v})" for k, v in dataset.get("groups", {}).items())
        lines.append(f"- records: {dataset.get('n')} kept, {dataset.get('n_dropped')} dropped")
        reasons = dataset.get("dropped_by_reason") or {}
        if dataset.get("n_dropped") and reasons:
            why = ", ".join(
                f"{count} without {_DROP_REASON_TEXT.get(reason, reason)}"
                for reason, count in reasons.items()
                if count
            )
            lines.append(f"- dropped rows: {why}")
        lines.append(f"- groups: {sizes}")
        threshold = dataset.get("threshold")
        if _is_number(threshold):
            lines.append(f"- decision threshold: score > {format_general(threshold)}")
        medians = dataset.get("imputed_medians") or {}
        if medians:
            filled = ", ".join(f"{k}={format_general(v)}" for k, v in medians.items())
            lines.append(f"- imputed medians: {filled}")
        droppedcols = dataset.get("dropped_covariates") or {}
        if droppedcols:
            gone = ", ".join(
                f"{k} ({format_percent(v)} missing)" for k, v in droppedcols.items()
            )
            lines.append(f"- dropped covariates: {gone}")
        lines.append("")

    # the interval header names the bootstrap's level; 95% is the --alpha default
    bootstrap = (document.get("request") or {}).get("bootstrap")
    level = _format_level(bootstrap["alpha"]) if bootstrap else "95"
    for pair in document.get("fairness", []):
        lines.extend(_pair_section(pair, f"{level}% CI"))

    meta_results = document.get("meta_metrics", [])
    if meta_results:
        lines.append("## Meta-metrics")
        lines.append("")
        body = []
        for entry in meta_results:
            groups = entry.get("groups")
            values = entry.get("group_values", [])
            if groups:
                spread = ", ".join(
                    f"{g}={format_general(v)}" for g, v in zip(groups, values)
                )
            else:
                spread = ", ".join(format_general(v) for v in values)
            note = entry.get("note")
            body.append(
                [
                    entry.get("metric") or DASH,
                    entry.get("kind") or DASH,
                    format_general(entry.get("value")) if note is None else note,
                    spread,
                ]
            )
        lines.extend(_markdown_table(["Metric", "Kind", "Value", "Group values"], body))
        lines.append("")

    diagnostics = document.get("diagnostics")
    if diagnostics:
        lines.append("## Diagnostics")
        lines.append("")
        if "error" in diagnostics:
            lines.append(f"- not available: {diagnostics['error']}")
        else:
            prevalence = ", ".join(
                f"{k}={format_percent(v)}" for k, v in diagnostics.get("prevalence", {}).items()
            )
            lines.append(f"- outcome prevalence: {prevalence}")
            lines.append(
                f"- outcome/group chi-square: {format_general(diagnostics.get('statistic'))} "
                f"(p = {format_general(diagnostics.get('p_value'))})"
            )
            flagged = diagnostics.get("flagged", [])
            if diagnostics.get("reject_independence"):
                lines.append("- outcome rates differ across groups at the test level")
            else:
                lines.append("- no evidence that outcome rates differ across groups")
            if flagged:
                lines.append(
                    "- criterion families that cannot both hold here: "
                    + ", ".join(flagged)
                )
            for note in diagnostics.get("notes", []):
                lines.append(f"- {note}")
        lines.append("")

    for assessment in document.get("epsilon_assessments", []):
        epsilon = assessment.get("epsilon")
        lines.append(
            f"## Tolerance check: epsilon = {format_general(epsilon)} "
            f"({assessment.get('group_a')} vs {assessment.get('group_b')})"
        )
        lines.append("")
        body = [
            [key, verdict]
            for key, verdict in assessment.get("verdicts", {}).items()
        ]
        lines.extend(_markdown_table(["Criterion", "Verdict"], body))
        lines.append("")

    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"
