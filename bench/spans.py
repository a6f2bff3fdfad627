"""Spans and counters recorded from outside fairaudit.

The tracer wraps each layer's public functions at the names their callers
import (``fairaudit.cli.load_csv``, ``fairaudit.fairness.bootstrap_intervals``
and so on) and wraps ``AuditDataset`` methods on the class, for the
duration of one ``with tracer.installed():`` block. Spans are kept in
memory; the caller turns them into per-layer self times.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass

import fairaudit.cli
import fairaudit.diagnostics
import fairaudit.fairness
import fairaudit.inference
from fairaudit.dataset import AuditDataset

# (module, attribute, span name). Several attributes may share a span name;
# their self times add up into one layer figure. The bootstrap is spanned
# separately because it also counts replicates.
SPANNED = (
    (fairaudit.cli, "load_csv", "dataset.load_csv"),
    (fairaudit.cli, "impute_medians", "dataset.prepare"),
    (fairaudit.cli, "apply_threshold", "dataset.prepare"),
    (fairaudit.fairness, "filter_condition", "dataset.filter_condition"),
    (fairaudit.cli, "evaluate_all", "fairness.evaluate_all"),
    (fairaudit.fairness, "compare", "fairness.compare"),
    (fairaudit.fairness, "compare_calibration", "fairness.compare_calibration"),
    (fairaudit.fairness, "calibration_curve", "metrics.calibration_curve"),
    (fairaudit.cli, "_meta_for_metrics", "multigroup.meta"),
    (fairaudit.cli, "incompatibility_verdict", "diagnostics.verdict"),
    (fairaudit.cli, "build_document", "report.build"),
    (fairaudit.cli, "render_json", "report.render"),
    (fairaudit.cli, "emit_markdown", "report.render"),
)

# Counted but not spanned, so their time stays in the caller's self time.
COUNTED = (
    (fairaudit.fairness, "group_metric", "metrics.group_metric_calls"),
    (fairaudit.diagnostics, "group_metric", "metrics.group_metric_calls"),
    (fairaudit.cli, "group_metric", "metrics.group_metric_calls"),
    (fairaudit.inference, "group_metric", "metrics.group_metric_calls"),
)

ROOT = "cli.main"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list; None for the root

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent) and call counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()  # wrapped names the program no longer has
        self._lock = threading.Lock()
        self._local = threading.local()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def run(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so parents precede children
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = Span(name, start, end, parent)

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def _bootstrap(self, fn):
        spanned = self.spanned("inference.bootstrap", fn)

        @functools.wraps(fn)
        def wrapper(dataset, metrics, group_a, group_b, config=None, **kwargs):
            self.count("inference.calls")
            if config is not None:
                # one resample per group and iteration
                self.count("inference.replicates", 2 * config.iterations)
            return spanned(dataset, metrics, group_a, group_b, config, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch the wrappers in; restore every original on exit.

        A name the program no longer defines is skipped and listed in
        ``missing``; its layer then reads 0 and its time stays with the
        caller, which ``trace.coverage`` shows.
        """
        saved = []

        def patch(owner, attr, wrap):
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.add(f"{owner.__name__}.{attr}")
                return
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

        try:
            for module, attr, name in SPANNED:
                patch(module, attr, functools.partial(self.spanned, name))
            for module, attr, name in COUNTED:
                patch(module, attr, functools.partial(self.counted, name))
            patch(fairaudit.fairness, "bootstrap_intervals", self._bootstrap)
            patch(
                AuditDataset,
                "groups",
                lambda prop: property(self.counted("dataset.groups_calls", prop.fget)),
            )
            patch(
                AuditDataset,
                "group_positions",
                functools.partial(self.counted, "dataset.group_positions_calls"),
            )
            patch(
                AuditDataset,
                "__post_init__",
                functools.partial(self.counted, "dataset.constructions"),
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.seconds
    out: dict[str, float] = {}
    for span, children in zip(spans, child_time):
        out[span.name] = out.get(span.name, 0.0) + span.seconds - children
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, times relative to the first span's start."""
    if not spans:
        return []
    origin = spans[0].start
    return [
        {
            "name": s.name,
            "start": round(s.start - origin, 9),
            "end": round(s.end - origin, 9),
            "parent": s.parent,
        }
        for s in spans
    ]
