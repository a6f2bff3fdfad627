"""Command-line interface: audit, meta, and diagnose subcommands.

Audit flags reach :class:`AuditRequest` by argparse dest name, one field
per flag the audit reads, while ``--format`` and ``--output`` stay with
``main``; all three subcommands load their CSV through ``_prepare_dataset``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

from . import __version__
from .conditions import ConditionPredicate
from .dataset import (
    MAX_MISSING_DEFAULT,
    AuditDataset,
    apply_threshold,
    checked_max_missing,
    checked_threshold,
    impute_medians,
    load_csv,
)
from .diagnostics import (
    DEFAULT_TEST_LEVEL,
    checked_epsilon,
    checked_test_level,
    epsilon_assessment,
    incompatibility_verdict,
)
from .errors import ComputationError, FairauditError, InputError
from .fairness import (
    CALIBRATION_SKIPPED,
    DEFAULT_CRITERIA,
    FairnessCriterion,
    RowStatus,
    coerce_criterion,
    evaluate_all,
    selected_criteria,
)
from .inference import ALPHA_DEFAULT, SEED_DEFAULT, BootstrapConfig
from .metrics import (
    BINS_DEFAULT,
    MIN_BIN_COUNT_DEFAULT,
    checked_bins,
    coerce_metric,
    group_metric,
)
from .multigroup import MetaMetricKind, checked_exponent, coerce_kind, meta
from .report import build_document, emit_markdown, render_json

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")

# The --criteria token that names DEFAULT_CRITERIA, and the report formats.
CRITERIA_DEFAULT = "default"
FORMATS = ("json", "markdown")
FORMAT_DEFAULT = "markdown"


@dataclass(frozen=True)
class AuditRequest:
    """Parameters for one audit run, one field per flag the audit reads, while
    ``--format`` and ``--output`` stay with ``main``. ``validate`` checks them
    all and returns what it builds: the criteria, the parsed conditions and
    the bootstrap config (None without ``--bootstrap``)."""

    input: str
    outcome: str
    group: str
    score: str | None = None
    decision: str | None = None
    reference: str | None = None
    threshold: float | None = None
    criteria: str = CRITERIA_DEFAULT
    conditions: Mapping[str, str] = field(default_factory=dict)
    bootstrap: int | None = None
    alpha: float = ALPHA_DEFAULT
    seed: int = SEED_DEFAULT
    bins: int = BINS_DEFAULT
    min_bin_count: int = MIN_BIN_COUNT_DEFAULT
    epsilon: tuple[float, ...] = ()
    meta: bool = False
    impute_max_missing: float = MAX_MISSING_DEFAULT
    workers: int = 1

    def validate(self) -> tuple[
        tuple[FairnessCriterion, ...], dict[str, ConditionPredicate], BootstrapConfig | None
    ]:
        if self.threshold is not None:
            checked_threshold(self.threshold)
        checked_bins(self.bins, self.min_bin_count)
        for value in self.epsilon:
            checked_epsilon(value)
        tokens = [t.strip() for t in self.criteria.split(",") if t.strip()]
        if not tokens:
            raise InputError("empty criteria list")
        resolved: list[FairnessCriterion] = []
        for token in tokens:
            if token == CRITERIA_DEFAULT:
                resolved.extend(DEFAULT_CRITERIA)
            elif token == "all":
                resolved.extend(
                    c
                    for c in FairnessCriterion
                    if c is not FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY
                )
            else:
                resolved.append(coerce_criterion(token))
        criteria = tuple(dict.fromkeys(resolved))
        selected_criteria(criteria, bool(self.conditions))
        conditions = {
            name: ConditionPredicate.parse(expr) for name, expr in self.conditions.items()
        }
        config = None
        checks = {"alpha": self.alpha, "seed": self.seed, "workers": self.workers}
        if self.bootstrap is not None:
            config = BootstrapConfig(iterations=self.bootstrap, **checks)
        BootstrapConfig(**checks)  # checked without --bootstrap too
        checked_max_missing(self.impute_max_missing)
        return criteria, conditions, config

    def echo(self, criteria: Sequence[FairnessCriterion]) -> dict:
        return {
            "command": "audit",
            "input": self.input,
            "outcome": self.outcome,
            "score": self.score,
            "decision": self.decision,
            "group": self.group,
            "reference": self.reference,
            "threshold": self.threshold,
            "criteria": [c.value for c in criteria],
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
    flags: argparse.Namespace | AuditRequest, max_missing: float = MAX_MISSING_DEFAULT
) -> AuditDataset:
    """Load, impute and threshold the CSV named by parsed flags or a request."""
    if flags.threshold is not None:
        checked_threshold(flags.threshold)  # before the file is read
    dataset = load_csv(
        flags.input, outcome=flags.outcome, group=flags.group, score=flags.score,
        decision=flags.decision,
    )
    dataset = impute_medians(dataset, max_missing=max_missing)
    if flags.threshold is not None:
        dataset = apply_threshold(dataset, flags.threshold)
    return dataset


def run_audit(request: AuditRequest) -> dict:
    """Execute an audit request and return the report document."""
    criteria, conditions, config = request.validate()
    dataset = _prepare_dataset(request, request.impute_max_missing)
    groups = dataset.groups
    reference = groups[0] if request.reference is None else request.reference
    pairs = [(reference, other) for other in groups if other != reference]

    reports = [
        evaluate_all(
            dataset,
            group_a,
            group_b,
            criteria=criteria,
            conditions=conditions,
            bootstrap=config,
            bins=request.bins,
            min_bin_count=request.min_bin_count,
        )
        for group_a, group_b in pairs
    ]
    # calibration was asked for and scores are loaded, yet no pair formed one
    skipped = [
        note.removeprefix(CALIBRATION_SKIPPED)
        for report in reports
        for note in report.notes
        if note.startswith(CALIBRATION_SKIPPED)
    ]
    if dataset.has_scores and len(skipped) == len(reports):
        raise ComputationError(skipped[0])

    meta_results: list = []
    if len(dataset.groups) > 2 or request.meta:
        # every pair has the same row statuses, so the first pair's rows name the metrics
        evaluated = dict.fromkeys(
            row.metric
            for row in reports[0].rows
            if row.status is RowStatus.EVALUATED and row.condition is None
        )
        meta_results = _meta_for_metrics(dataset, evaluated, list(MetaMetricKind), None)

    try:
        diagnostics = incompatibility_verdict(dataset)
    except FairauditError as exc:
        diagnostics = {"error": str(exc)}

    assessments = [
        epsilon_assessment(report, eps) for eps in request.epsilon for report in reports
    ]

    return build_document(
        request=request.echo(criteria),
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
        try:
            values = {label: group_metric(dataset, label, metric) for label in labels}
        except InputError as exc:
            results.extend({"kind": k.value, "metric": metric.value, "note": str(exc)} for k in kinds)
            continue
        for kind in kinds:
            entropy = kind is MetaMetricKind.GENERALIZED_ENTROPY
            try:
                results.append(
                    meta(values, kind, exponent=exponent if entropy else None, metric=metric)
                )
            except InputError as exc:
                results.append({"kind": kind.value, "metric": metric.value, "note": str(exc)})
    return results


def run_meta(args: argparse.Namespace) -> dict:
    metrics = list(dict.fromkeys(map(coerce_metric, args.metric or ["positive_rate"])))
    kinds = list(dict.fromkeys(map(coerce_kind, args.kind or MetaMetricKind)))
    # only the entropy kind is given --exponent; without it, the first kind refuses one
    entropy = MetaMetricKind.GENERALIZED_ENTROPY
    checked_exponent(entropy if entropy in kinds else kinds[0], args.exponent)
    dataset = _prepare_dataset(args)
    results = _meta_for_metrics(dataset, metrics, kinds, args.exponent)
    request = {
        "command": "meta",
        "input": args.input,
        "metrics": [m.value for m in metrics],
        "kinds": [k.value for k in kinds],
        "exponent": args.exponent,
        "threshold": args.threshold,
    }
    return build_document(request=request, dataset=dataset, meta_results=results)


def run_diagnose(args: argparse.Namespace) -> dict:
    checked_test_level(args.level)
    dataset = _prepare_dataset(args)
    verdict = incompatibility_verdict(dataset, args.level)
    request = {
        "command": "diagnose",
        "input": args.input,
        "threshold": args.threshold,
        "level": args.level,
    }
    return build_document(request=request, dataset=dataset, diagnostics=verdict)


def _audit_handler(args: argparse.Namespace) -> dict:
    conditions: dict[str, str] = {}
    for item in args.condition or []:
        name, sep, expr = item.partition("=")
        if not sep:
            raise InputError(f"expected NAME=EXPR for --condition, got {item!r}")
        name = name.strip()
        if not _NAME_RE.match(name):
            raise InputError(f"invalid condition name: {name!r}")
        if name in conditions:
            raise InputError(f"duplicate condition name: {name!r}")
        conditions[name] = expr.strip()
    given = {"conditions": conditions, "epsilon": tuple(args.epsilon or [])}
    flags = {f.name: getattr(args, f.name) for f in fields(AuditRequest) if f.name not in given}
    return run_audit(AuditRequest(**given, **flags))


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
        "--format", choices=FORMATS, default=FORMAT_DEFAULT, help="output format"
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
        default=CRITERIA_DEFAULT,
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
    audit.add_argument("--alpha", type=float, default=ALPHA_DEFAULT, help="interval miss probability")
    audit.add_argument("--seed", type=int, default=SEED_DEFAULT, help="bootstrap seed")
    audit.add_argument("--bins", type=int, default=BINS_DEFAULT, help="calibration bins")
    audit.add_argument(
        "--min-bin-count", type=int, default=MIN_BIN_COUNT_DEFAULT,
        help="records per usable calibration bin",
    )
    audit.add_argument(
        "--epsilon",
        action="append",
        type=float,
        help="tolerance for approximate-fairness verdicts (repeatable)",
    )
    audit.add_argument(
        "--workers",
        type=int,
        default=1,
        help="threads that draw each group's bootstrap blocks; the report is the same "
        "for any count, and more workers than CPUs gains nothing",
    )
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
        "--exponent", type=float, default=None, help="generalized entropy exponent (default 2)"
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
    temp_path = None
    try:
        try:  # a replaced report keeps its mode, a new one gets what open() would give
            mode = os.stat(path).st_mode & 0o777
        except FileNotFoundError:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        descriptor, temp_path = tempfile.mkstemp(dir=directory, prefix=".fairaudit-")
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            os.fchmod(descriptor, mode)  # mkstemp makes the file 0600
            handle.write(text)
        os.replace(temp_path, path)
    except OSError as exc:
        if temp_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)
        raise InputError(f"cannot write {path!r}: {exc.strerror or exc}") from None


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
