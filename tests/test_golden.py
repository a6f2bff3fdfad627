"""Report bytes pinned against checked-in golden files.

Each golden file is the audit below of the ``clinical_csv`` fixture, run from
the CSV's directory so the echoed input path is fixed. It runs no bootstrap,
so the files pin arithmetic and layout, not a random stream.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fairaudit.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"markdown": "audit_clinical.md", "json": "audit_clinical.json"}


def audit_argv(clinical_csv: str, fmt: str, output: Path) -> list[str]:
    return [
        "audit",
        "--input",
        os.path.basename(clinical_csv),
        "--outcome",
        "died",
        "--group",
        "sex",
        "--score",
        "risk",
        "--threshold",
        "0.5",
        "--criteria",
        "all",
        "--meta",
        "--condition",
        "senior=age >= 60",
        "--condition",
        "icu=ward == 'icu'",
        "--epsilon",
        "0.05",
        "--format",
        fmt,
        "--output",
        str(output),
    ]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_report_matches_golden_file(fmt, clinical_csv, tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(clinical_csv))
    output = tmp_path / FORMATS[fmt]
    assert main(audit_argv(clinical_csv, fmt, output)) == 0
    assert output.read_bytes() == (GOLDEN / FORMATS[fmt]).read_bytes()


def test_report_bytes_do_not_depend_on_the_hash_seed(clinical_csv, tmp_path):
    # set and dict iteration order over strings varies with PYTHONHASHSEED;
    # no report byte may depend on it
    for fmt, name in sorted(FORMATS.items()):
        reports = []
        for seed in ("0", "1"):
            output = tmp_path / f"{seed}-{name}"
            result = subprocess.run(
                [sys.executable, "-m", "fairaudit.cli", *audit_argv(clinical_csv, fmt, output)],
                cwd=os.path.dirname(clinical_csv),
                env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert (result.returncode, result.stderr) == (0, "")
            reports.append(output.read_bytes())
        assert reports[0] == reports[1] == (GOLDEN / name).read_bytes()
