"""Group-fairness auditing for binary classifiers.

Evaluate how a classifier's error profile differs across protected
groups: per-group metrics, pairwise fairness criteria with bootstrap
confidence intervals, multi-group spread summaries, and diagnostics for
criteria that cannot hold together on the data at hand.
"""

__version__ = "0.1.0"

from .conditions import ConditionPredicate
from .dataset import (
    AuditDataset,
    GroupCodes,
    apply_threshold,
    filter_condition,
    impute_medians,
    load_csv,
)
from .diagnostics import (
    EpsilonAssessment,
    IncompatibilityVerdict,
    IncompatiblePair,
    IndependenceTest,
    Verdict,
    epsilon_assessment,
    incompatibility_verdict,
    independence_test,
)
from .errors import ComputationError, FairauditError, InputError
from .fairness import (
    CalibrationComparison,
    Category,
    Comparison,
    FairnessCriterion,
    FairnessReport,
    RowStatus,
    compare,
    compare_calibration,
    criterion_components,
    evaluate_all,
    make_comparison,
)
from .inference import (
    BootstrapConfig,
    Interval,
    IntervalMethod,
    PairIntervals,
    bootstrap_intervals,
    ci_diff,
    ci_ratio,
)
from .metrics import (
    UNDEFINED,
    CalibrationCurve,
    MetricId,
    calibration_curve,
    group_metric,
    is_defined,
)
from .multigroup import MetaMetricKind, MetaMetricResult, meta
from .report import build_document, emit_markdown, load_report_schema, render_json

__all__ = [
    "__version__",
    "AuditDataset",
    "BootstrapConfig",
    "CalibrationComparison",
    "CalibrationCurve",
    "Category",
    "Comparison",
    "ComputationError",
    "ConditionPredicate",
    "EpsilonAssessment",
    "FairauditError",
    "FairnessCriterion",
    "FairnessReport",
    "GroupCodes",
    "IncompatibilityVerdict",
    "IncompatiblePair",
    "IndependenceTest",
    "InputError",
    "Interval",
    "IntervalMethod",
    "MetaMetricKind",
    "MetaMetricResult",
    "MetricId",
    "PairIntervals",
    "RowStatus",
    "UNDEFINED",
    "Verdict",
    "apply_threshold",
    "bootstrap_intervals",
    "build_document",
    "calibration_curve",
    "ci_diff",
    "ci_ratio",
    "compare",
    "compare_calibration",
    "criterion_components",
    "emit_markdown",
    "epsilon_assessment",
    "evaluate_all",
    "filter_condition",
    "group_metric",
    "impute_medians",
    "incompatibility_verdict",
    "independence_test",
    "is_defined",
    "load_csv",
    "load_report_schema",
    "make_comparison",
    "meta",
    "render_json",
]
