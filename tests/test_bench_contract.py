"""The benchmark's contract with the program, checked without running it.

The tracer patches library functions and AuditDataset members by name, and
every workload passes a fixed command line. A rename, turning ``groups``
into something other than a property, or dropping a flag a workload
passes would otherwise surface only in a benchmark run.
"""

from __future__ import annotations

from pathlib import Path

from fairaudit.cli import build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()


def test_workload_command_lines_parse(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    parser = build_parser()
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        args = parser.parse_args(workload.argv("x.csv"))
        assert args.command == "audit" and args.input == "x.csv"
