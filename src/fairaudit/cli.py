"""Command-line interface: audit, meta, and diagnose subcommands."""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import __version__
from .conditions import ConditionPredicate
from .dataset import (
    MAX_MISSING_DEFAULT,
    AuditDataset,
    apply_threshold,
    impute_medians,
    load_csv,
)
from .diagnostics import (
    DEFAULT_TEST_LEVEL,
    epsilon_assessment,
    incompatibility_verdict,
)
from .errors import ComputationError, FairauditError, InputError
from .fairness import (
    DEFAULT_CRITERIA,
    FairnessCriterion,
    RowStatus,
    coerce_criterion,
    evaluate_all,
)
from .inference import BootstrapConfig
from .metrics import coerce_metric, group_metric, is_defined
from .multigroup import MetaMetricKind, coerce_kind, meta
from .report import build_document, emit_markdown, render_json

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class AuditRequest:
    """Validated parameters for one audit run."""

    input: str
    outcome: str
    group: str
    score: str | None = None
    decision: str | None = None
    reference: str | None = None
    threshold: float | None = None
    criteria: str = "default"
    conditions: Mapping[str, str] = field(default_factory=dict)
    bootstrap: int | None = None
    alpha: float = 0.05
    seed: int = 0
    bins: int = 10
    min_bin_count: int = 10
    epsilon: tuple[float, ...] = ()
    format: str = "markdown"
    output: str | None = None
    workers: int = 1
    meta: bool = False
    impute_max_missing: float = MAX_MISSING_DEFAULT

    def resolved_criteria(self) -> tuple[FairnessCriterion, ...]:
        tokens = [t.strip() for t in self.criteria.split(",") if t.strip()]
        if not tokens:
            raise InputError("empty criteria list")
        out: list[FairnessCriterion] = []
        for token in tokens:
            if token == "default":
                out.extend(DEFAULT_CRITERIA)
            elif token == "all":
                out.extend(
                    c
                    for c in FairnessCriterion
                    if c is not FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY
                )
            else:
                out.append(coerce_criterion(token))
        return tuple(dict.fromkeys(out))

    def parsed_conditions(self) -> dict[str, ConditionPredicate]:
        return {
            name: ConditionPredicate.parse(expr) for name, expr in self.conditions.items()
        }

    def bootstrap_config(self) -> BootstrapConfig | None:
        if self.bootstrap is None:
            return None
        return BootstrapConfig(iterations=self.bootstrap, alpha=self.alpha, seed=self.seed)

    def validate(self) -> None:
        if self.format not in ("json", "markdown"):
            raise InputError(f"unknown format: {self.format!r}")
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise InputError("threshold outside [0, 1]")
        if self.workers < 1:
            raise InputError("workers must be at least 1")
        if self.bins < 2:
            raise InputError("bins must be at least 2")
        if self.min_bin_count < 1:
            raise InputError("min-bin-count must be at least 1")
        for value in self.epsilon:
            if not value > 0.0:
                raise InputError("epsilon must be positive")
        self.resolved_criteria()
        self.parsed_conditions()
        self.bootstrap_config()

    def echo(self) -> dict:
        # workers is deliberately absent: reports must be byte-identical
        # across worker counts, and the echo is part of the report
        return {
            "command": "audit",
            "input": self.input,
            "outcome": self.outcome,
            "score": self.score,
            "decision": self.decision,
            "group": self.group,
            "reference": self.reference,
            "threshold": self.threshold,
            "criteria": [c.value for c in self.resolved_criteria()],
            "conditions": dict(self.conditions),
            "bootstrap": None
            if self.bootstrap is None
            else {"iterations": self.bootstrap, "alpha": self.alpha, "seed": self.seed},
            "bins": self.bins,
            "min_bin_count": self.min_bin_count,
            "epsilon": list(self.epsilon),
            "meta": self.meta,
            "impute_max_missing": self.impute_max_missing,
        }


def _prepare_dataset(
    *,
    input: str,
    outcome: str,
    group: str,
    score: str | None,
    decision: str | None,
    threshold: float | None,
    impute_max_missing: float = MAX_MISSING_DEFAULT,
) -> AuditDataset:
    dataset = load_csv(
        input, outcome=outcome, group=group, score=score, decision=decision
    )
    dataset = impute_medians(dataset, max_missing=impute_max_missing)
    if threshold is not None:
        dataset = apply_threshold(dataset, threshold)
    return dataset


def _reference_and_pairs(
    dataset: AuditDataset, reference: str | None
) -> tuple[str, list[tuple[str, str]]]:
    groups = dataset.groups
    if reference is None:
        reference = groups[0]
    elif reference not in groups:
        raise InputError(f"unknown reference group: {reference!r}")
    return reference, [(reference, other) for other in groups if other != reference]


def run_audit(request: AuditRequest) -> dict:
    """Execute an audit request and return the report document."""
    request.validate()
    criteria = request.resolved_criteria()
    conditions = request.parsed_conditions()
    dataset = _prepare_dataset(
        input=request.input,
        outcome=request.outcome,
        group=request.group,
        score=request.score,
        decision=request.decision,
        threshold=request.threshold,
        impute_max_missing=request.impute_max_missing,
    )
    if not dataset.has_decisions:
        raise InputError(
            "no decisions available: bind a decision column or pass --threshold"
        )
    reference, pairs = _reference_and_pairs(dataset, request.reference)
    config = request.bootstrap_config()

    reports = [
        evaluate_all(
            dataset,
            group_a,
            group_b,
            criteria=criteria,
            conditions=conditions,
            bootstrap=config,
            workers=request.workers,
            bins=request.bins,
            min_bin_count=request.min_bin_count,
        )
        for group_a, group_b in pairs
    ]

    meta_results: list = []
    if len(dataset.groups) > 2 or request.meta:
        evaluated = []
        for report in reports:
            for row in report.rows:
                if (
                    row.status is RowStatus.EVALUATED
                    and row.condition is None
                    and row.metric is not None
                    and row.metric not in evaluated
                ):
                    evaluated.append(row.metric)
        meta_results = _meta_for_metrics(dataset, evaluated, list(MetaMetricKind), None)

    try:
        diagnostics = incompatibility_verdict(dataset)
    except FairauditError as exc:
        diagnostics = {"error": str(exc)}

    assessments = [
        epsilon_assessment(report, eps) for eps in request.epsilon for report in reports
    ]

    return build_document(
        version=__version__,
        request=request.echo(),
        dataset=dataset,
        reports=reports,
        meta_results=meta_results,
        diagnostics=diagnostics,
        assessments=assessments,
    )


def _meta_for_metrics(dataset, metrics, kinds, exponent) -> list:
    results: list = []
    labels = dataset.groups
    for metric in metrics:
        values = {}
        broken = None
        for label in labels:
            try:
                value = group_metric(dataset, label, metric)
            except InputError as exc:
                broken = str(exc)
                break
            values[label] = value
        if broken is None and any(not is_defined(v) for v in values.values()):
            undefined_for = [k for k, v in values.items() if not is_defined(v)]
            broken = f"undefined for group(s) {', '.join(map(repr, undefined_for))}"
        for kind in kinds:
            if broken is not None:
                results.append(
                    {"kind": kind.value, "metric": metric.value, "note": broken}
                )
                continue
            try:
                result = meta(
                    values,
                    kind,
                    exponent=exponent
                    if kind is MetaMetricKind.GENERALIZED_ENTROPY
                    else None,
                    metric=metric,
                )
            except InputError as exc:
                results.append(
                    {"kind": kind.value, "metric": metric.value, "note": str(exc)}
                )
            else:
                results.append(result)
    return results


def run_meta(args: argparse.Namespace) -> dict:
    dataset = _prepare_dataset(
        input=args.input,
        outcome=args.outcome,
        group=args.group,
        score=args.score,
        decision=args.decision,
        threshold=args.threshold,
    )
    metrics = [coerce_metric(m) for m in (args.metric or ["positive_rate"])]
    kinds = [coerce_kind(k) for k in (args.kind or [k.value for k in MetaMetricKind])]
    results = _meta_for_metrics(dataset, metrics, kinds, args.exponent)
    request = {
        "command": "meta",
        "input": args.input,
        "metrics": [m.value for m in metrics],
        "kinds": [k.value for k in kinds],
        "exponent": args.exponent,
        "threshold": args.threshold,
    }
    return build_document(
        version=__version__, request=request, dataset=dataset, meta_results=results
    )


def run_diagnose(args: argparse.Namespace) -> dict:
    dataset = _prepare_dataset(
        input=args.input,
        outcome=args.outcome,
        group=args.group,
        score=args.score,
        decision=args.decision,
        threshold=args.threshold,
    )
    verdict = incompatibility_verdict(dataset, args.level)
    request = {
        "command": "diagnose",
        "input": args.input,
        "threshold": args.threshold,
        "level": args.level,
    }
    return build_document(
        version=__version__, request=request, dataset=dataset, diagnostics=verdict
    )


def _audit_handler(args: argparse.Namespace) -> dict:
    conditions: dict[str, str] = {}
    for item in args.condition or []:
        name, sep, expr = item.partition("=")
        if not sep or not expr.strip():
            raise InputError(f"expected NAME=EXPR for --condition, got {item!r}")
        name = name.strip()
        if not _NAME_RE.match(name):
            raise InputError(f"invalid condition name: {name!r}")
        if name in conditions:
            raise InputError(f"duplicate condition name: {name!r}")
        conditions[name] = expr.strip()
    request = AuditRequest(
        input=args.input,
        outcome=args.outcome,
        group=args.group,
        score=args.score,
        decision=args.decision,
        reference=args.reference,
        threshold=args.threshold,
        criteria=args.criteria,
        conditions=conditions,
        bootstrap=args.bootstrap,
        alpha=args.alpha,
        seed=args.seed,
        bins=args.bins,
        min_bin_count=args.min_bin_count,
        epsilon=tuple(args.epsilon or []),
        format=args.format,
        output=args.output,
        workers=args.workers,
        meta=args.meta,
        impute_max_missing=args.impute_max_missing,
    )
    return run_audit(request)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting so all errors share one reporting path."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(message)


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="CSV file to audit")
    parser.add_argument("--outcome", required=True, help="binary outcome column")
    parser.add_argument("--group", required=True, help="protected group column")
    parser.add_argument("--score", help="risk score column in [0, 1]")
    parser.add_argument("--decision", help="binary decision column")
    parser.add_argument(
        "--threshold",
        type=float,
        help="derive decisions: positive when the score exceeds this cutoff",
    )
    parser.add_argument(
        "--format", choices=("json", "markdown"), default="markdown", help="output format"
    )
    parser.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairaudit", description="Group-fairness audits for binary classifiers.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    audit = commands.add_parser(
        "audit", help="pairwise fairness comparisons with optional bootstrap intervals"
    )
    _add_io_flags(audit)
    audit.add_argument("--reference", help="reference group label (default: first sorted label)")
    audit.add_argument(
        "--criteria",
        default="default",
        help="comma-separated criteria names, or 'default' or 'all'",
    )
    audit.add_argument(
        "--condition",
        action="append",
        metavar="NAME=EXPR",
        help="conditional statistical parity stratum, e.g. age60='age >= 60' (repeatable)",
    )
    audit.add_argument(
        "--bootstrap", type=int, metavar="B", help="bootstrap iterations for intervals"
    )
    audit.add_argument("--alpha", type=float, default=0.05, help="interval miss probability")
    audit.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    audit.add_argument("--bins", type=int, default=10, help="calibration bins")
    audit.add_argument(
        "--min-bin-count", type=int, default=10, help="records per usable calibration bin"
    )
    audit.add_argument(
        "--epsilon",
        action="append",
        type=float,
        help="tolerance for approximate-fairness verdicts (repeatable)",
    )
    audit.add_argument("--workers", type=int, default=1, help="bootstrap worker threads")
    audit.add_argument(
        "--meta", action="store_true", help="include meta-metrics even with two groups"
    )
    audit.add_argument(
        "--impute-max-missing",
        type=float,
        default=MAX_MISSING_DEFAULT,
        help="drop covariates with a higher missing fraction instead of imputing",
    )
    audit.set_defaults(handler=_audit_handler)

    meta_cmd = commands.add_parser(
        "meta", help="spread of per-group metrics across all groups"
    )
    _add_io_flags(meta_cmd)
    meta_cmd.add_argument(
        "--metric", action="append", help="metric to summarize (repeatable; default positive_rate)"
    )
    meta_cmd.add_argument(
        "--kind", action="append", help="meta-metric kind (repeatable; default all)"
    )
    meta_cmd.add_argument(
        "--exponent", type=_finite_float, default=None, help="generalized entropy exponent (default 2)"
    )
    meta_cmd.set_defaults(handler=run_meta)

    diagnose = commands.add_parser(
        "diagnose", help="incompatibility diagnostics for criteria families"
    )
    _add_io_flags(diagnose)
    diagnose.add_argument(
        "--level", type=float, default=DEFAULT_TEST_LEVEL, help="independence test level"
    )
    diagnose.set_defaults(handler=run_diagnose)

    return parser


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(dir=directory, prefix=".fairaudit-")
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp_path, path)
    except OSError as exc:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise InputError(f"cannot write {path!r}: {exc}") from None


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        document = args.handler(args)
        text = render_json(document) if args.format == "json" else emit_markdown(document)
        _write_output(text, args.output)
    except InputError as exc:
        print(f"fairaudit: {exc}", file=sys.stderr)
        return 1
    except ComputationError as exc:
        print(f"fairaudit: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
