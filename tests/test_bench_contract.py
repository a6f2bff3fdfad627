"""The benchmark's hook points: every name bench/spans.py wraps still exists.

The tracer patches library functions and AuditDataset members by name. A
rename, or turning ``groups`` into something other than a property, would
otherwise surface only in a traced benchmark run.
"""

from __future__ import annotations

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == set()
