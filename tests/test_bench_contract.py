"""The benchmark's contract with the program, checked without running it.

The tracer patches library functions and AuditDataset members by name, and
every workload passes a fixed command line. A rename, turning ``groups``
into something other than a property, or dropping a flag a workload
passes would otherwise surface only in a benchmark run.
"""

from __future__ import annotations

import functools
from pathlib import Path

import fairaudit.fairness
from fairaudit.cli import build_parser, main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()


def test_an_audit_calls_every_patched_name(monkeypatch, capsys, clinical_csv):
    """A name the tracer wraps but no audit calls reads 0 in its layer."""
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    hooks = [(module, attr) for module, attr, _ in spans.SPANNED + spans.COUNTED]
    hooks.append((fairaudit.fairness, "bootstrap_intervals"))
    called = set()

    def recorded(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)

        return wrapper

    for module, attr in hooks:
        name = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, recorded(name, getattr(module, attr)))
    argv = [
        "audit", "--input", clinical_csv, "--outcome", "died", "--group", "sex",
        "--score", "risk", "--threshold", "0.5", "--criteria", "all", "--meta",
        "--condition", "icu=ward == 'icu'", "--bootstrap", "50", "--bins", "5",
    ]
    for report_format in ("json", "markdown"):
        assert main([*argv, "--format", report_format]) == 0
    capsys.readouterr()
    never = {f"{module.__name__}.{attr}" for module, attr in hooks} - called
    # compare serves library callers; evaluate_all builds the audit's rows
    assert never == {"fairaudit.fairness.compare"}


def test_workload_command_lines_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    parser = build_parser()
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        args = parser.parse_args(workload.argv("x.csv"))
        assert args.command == "audit" and args.input == "x.csv"
