#!/usr/bin/env python3
"""Audit benchmark: drives ``fairaudit.cli.main(["audit", ...])`` in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload small_boot --seed 1 --seconds 25 --trace 0

The workload's CSV is generated from ``--seed``, audited once as a warm-up
and then repeatedly for ``--seconds``. Every audit is checked (see
checks.py). With ``--trace 0`` the end-to-end metrics named in
BENCHMARK.json are reported; with ``--trace 1`` untraced and traced audits
alternate and the per-layer metrics are reported. A detail record with
the environment, sample counts and failures is printed first; the last
line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from checks import Oracle, bootstrap_kept_frac, check_json, check_markdown
from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
MIN_TIMED_AUDITS = 5
MIN_TRACED_AUDITS = 3
SUBPROCESS_TIMEOUT = 60
MAX_REPORTED_FAILURES = 10

# After each timed audit the benchmark times a fixed reference chunk for
# this share of the audit's wall time (at least a few chunks). Each audit is
# then scaled to a machine on which one chunk takes NOMINAL_CHUNK_S.
REFERENCE_SHARE = 0.2
REFERENCE_MIN_CHUNKS = 3
NOMINAL_CHUNK_S = 0.004

SETUP_CODE = (
    "import time; start = time.perf_counter(); import fairaudit.cli; "
    "print(time.perf_counter() - start)"
)


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


def fresh_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports fairaudit from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchError(f"fresh interpreter failed: {proc.stderr.strip()[-400:]}")
    return proc


def measure_setup() -> float:
    """Median seconds to import fairaudit.cli in a fresh interpreter."""
    fresh_python(SETUP_CODE)  # writes bytecode and warms the file cache
    return statistics.median(
        float(fresh_python(SETUP_CODE).stdout) for _ in range(SETUP_SAMPLES)
    )


def measure_diagnostics_import() -> float:
    """Median cumulative seconds of ``fairaudit.diagnostics`` under -X importtime."""
    fresh_python("import fairaudit.cli", "-X", "importtime")
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        stderr = fresh_python("import fairaudit.cli", "-X", "importtime").stderr
        for line in stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "fairaudit.diagnostics":
                samples.append(int(fields[1]) / 1e6)
    if len(samples) != IMPORTTIME_SAMPLES:
        raise BenchError("fairaudit.diagnostics missing from -X importtime output")
    return statistics.median(samples)


def import_fairaudit() -> None:
    """Import fairaudit from this checkout's sources, never from elsewhere."""
    package = SRC / "fairaudit"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no fairaudit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fairaudit

    if Path(fairaudit.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported fairaudit from {fairaudit.__file__}, not {package}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "fairaudit").rglob("*")):
        if path.suffix in (".py", ".json"):
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of this checkout, or None when it is not a git repository."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_DIR=str(git_dir)),
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT,
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


class AuditRunner:
    """Runs and checks audits of one generated CSV; counts the failures."""

    def __init__(self, workload, gen, csv_path: str):
        import jsonschema
        from fairaudit.cli import main
        from fairaudit.report import load_report_schema

        self.workload = workload
        self.argv = workload.argv(csv_path)
        self.main = main
        self.oracle = Oracle(gen)
        self.validator = jsonschema.Draft7Validator(load_report_schema())
        self.bootstrap = "--bootstrap" in workload.flags
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def audit(self, call=None, label: str = "untraced") -> tuple[float, str]:
        """One audit: wall seconds and the report text. Checks the report."""
        call = call or self.main
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        code = None
        crash = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = call(self.argv)
        except Exception:  # a crash is one failed audit, not the end of the run
            crash = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        text = out.getvalue()
        self.attempted += 1
        problems = self._check(code, crash, text, err.getvalue(), label)
        if problems:
            self.failed += 1
            room = MAX_REPORTED_FAILURES - len(self.failures)
            self.failures.extend(f"audit {self.attempted}: {p}" for p in problems[:room])
        return seconds, text

    def _check(self, code, crash, text: str, stderr: str, label: str) -> list[str]:
        if crash is not None:
            return [f"raised: {crash.strip().splitlines()[-1]}"]
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-200:]}"]
        problems = []
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"{label} report digest differs from the first audit's")
        if self.workload.format == "json":
            problems += check_json(text, self.oracle, self.validator, self.bootstrap)
        else:
            problems += check_markdown(text, self.oracle)
        return problems


def distribution(samples: list[float]) -> dict:
    """Count, median, and the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"audits": n, "audit_median_s": statistics.median(ordered)}
    for percentile in (99, 95, 90, 75, 50):
        rank = math.ceil(percentile / 100 * n)
        if n - rank >= 10:
            return {**out, "tail_percentile": percentile, "audit_tail_s": ordered[rank - 1]}
    return {**out, "tail_percentile": None, "audit_tail_s": None}


def reference_chunk() -> float:
    """Wall seconds of a fixed piece of work that never touches fairaudit."""
    start = time.perf_counter()
    "\n".join([f"{i},{i % 7},{i / 13:.6f}" for i in range(4000)])
    np.sort(np.arange(40_000.0)[::-1] * 1.5)
    return time.perf_counter() - start


def chunk_seconds(budget: float) -> float:
    """Mean reference-chunk time over chunks run for ``budget`` seconds."""
    chunks = []
    start = time.perf_counter()
    while len(chunks) < REFERENCE_MIN_CHUNKS or time.perf_counter() - start < budget:
        chunks.append(reference_chunk())
    return statistics.mean(chunks)


def end_to_end(runner: AuditRunner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """Time audits; scale each by the speed of the machine just after it.

    A shared machine runs in slow phases lasting seconds to minutes that
    move raw audit times by a third, between runs and between whole sets
    of runs. A reference chunk timed right after each audit runs in the
    same phase, so the scaled time follows the code, not the phase.
    """
    runner.audit()  # warm-up
    chunk_seconds(0.0)
    times, chunks = [], []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_TIMED_AUDITS or time.perf_counter() < deadline:
        wall = runner.audit()[0]
        times.append(wall)
        chunks.append(chunk_seconds(REFERENCE_SHARE * wall))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "audit_norm_s": statistics.median(
            wall * NOMINAL_CHUNK_S / chunk for wall, chunk in zip(times, chunks)
        ),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024,
    }
    detail = {**distribution(times), "audit_min_s": min(times)}
    detail["reference_chunk_s"] = statistics.median(chunks)
    return metrics, detail


def per_layer(runner: AuditRunner, seconds: float, import_s: float) -> tuple[dict, dict]:
    from spans import ROOT as ROOT_SPAN
    from spans import Tracer, span_records

    tracer = Tracer()

    def traced_main(argv):
        return tracer.run(ROOT_SPAN, runner.main, argv)

    runner.audit()  # warm-up, and the digest every traced report must match
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_TRACED_AUDITS or time.perf_counter() < deadline:
        untraced.append(runner.audit()[0])
        tracer.reset()
        with tracer.installed():
            wall, text = runner.audit(traced_main, label="traced")
        traced.append((wall, layer_metrics(tracer, wall, text), span_records(tracer.spans)))

    median_wall = statistics.median(wall for wall, _, _ in traced)
    layers = {
        name: statistics.median(m[name] for _, m, _ in traced) for name in traced[0][1]
    }
    layers["diagnostics.import_s"] = import_s
    layers["inference.kept_frac"] = (
        bootstrap_kept_frac(text) if runner.workload.format == "json" else 1.0
    )
    layers["trace.overhead"] = median_wall / statistics.median(untraced)
    middle = min(traced, key=lambda t: abs(t[0] - median_wall))
    return layers, {
        "audits": len(untraced),
        "traced_audits": len(traced),
        "untraced_names": sorted(tracer.missing),
        "spans": middle[2],
    }


def layer_metrics(tracer, wall: float, text: str) -> dict:
    """Per-layer figures of one traced audit."""
    from spans import self_times

    selfs = self_times(tracer.spans)
    counts = tracer.counts

    def spans_named(name):
        return sum(1 for s in tracer.spans if s.name == name)

    root_self = selfs["cli.main"]
    bootstrap_s = selfs.get("inference.bootstrap", 0.0)
    replicates = counts["inference.replicates"]
    return {
        "dataset.load_csv_s": selfs.get("dataset.load_csv", 0.0),
        "dataset.prepare_s": selfs.get("dataset.prepare", 0.0),
        "dataset.filter_condition_s": selfs.get("dataset.filter_condition", 0.0),
        "dataset.filter_condition_calls": spans_named("dataset.filter_condition"),
        "dataset.constructions": counts["dataset.constructions"],
        "dataset.groups_calls": counts["dataset.groups_calls"],
        "dataset.group_positions_calls": counts["dataset.group_positions_calls"],
        "metrics.group_metric_calls": counts["metrics.group_metric_calls"],
        "metrics.calibration_curve_s": selfs.get("metrics.calibration_curve", 0.0),
        "fairness.compare_s": selfs.get("fairness.compare", 0.0),
        "fairness.compare_calibration_s": selfs.get("fairness.compare_calibration", 0.0),
        "fairness.evaluate_all_self_s": selfs.get("fairness.evaluate_all", 0.0),
        "inference.bootstrap_s": bootstrap_s,
        "inference.calls": counts["inference.calls"],
        "inference.replicates": replicates,
        "inference.us_per_replicate": 1e6 * bootstrap_s / replicates if replicates else 0.0,
        "multigroup.meta_s": selfs.get("multigroup.meta", 0.0),
        "diagnostics.verdict_s": selfs.get("diagnostics.verdict", 0.0),
        "report.build_s": selfs.get("report.build", 0.0),
        "report.render_s": selfs.get("report.render", 0.0),
        "report.bytes": len(text.encode("utf-8")),
        "cli.self_s": root_self,
        "trace.coverage": (tracer.spans[0].seconds - root_self) / wall,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    import_fairaudit()
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    if args.trace:
        subprocess_metric = measure_diagnostics_import()
    else:
        subprocess_metric = measure_setup()

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work:
        csv_path = os.path.join(work, f"{workload.name}.csv")
        gen = generate(workload, args.seed, csv_path)
        runner = AuditRunner(workload, gen, csv_path)
        if args.trace:
            metrics, detail = per_layer(runner, args.seconds, subprocess_metric)
        else:
            metrics, detail = end_to_end(runner, args.seconds, subprocess_metric)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "failed_frac": runner.failed / runner.attempted,
        "failures": runner.failures,
        **detail,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through SystemExit on SIGTERM, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        detail, result = run(args)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
