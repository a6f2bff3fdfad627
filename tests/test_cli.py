"""End-to-end command-line behaviour, driven in process through main()."""

from __future__ import annotations

import json
import os
from concurrent import futures
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from fairaudit import __version__, cli, load_report_schema
from fairaudit.cli import AuditRequest, build_parser, main
from fairaudit.conditions import ConditionPredicate
from fairaudit.fairness import DEFAULT_CRITERIA, FairnessCriterion

from conftest import write_clinical_csv


def test_import_loads_no_scipy():
    # importing scipy would outweigh a small audit; the runtime needs none of it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys, fairaudit.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def audit_args(clinical_csv, *extra):
    return (
        "audit",
        "--input",
        clinical_csv,
        "--outcome",
        "died",
        "--group",
        "sex",
        "--score",
        "risk",
        "--threshold",
        "0.5",
        *extra,
    )


@pytest.fixture()
def three_group_csv(tmp_path) -> str:
    lines = ["y,g,d"]
    blocks = {
        "a": (["1", "1", "0", "0"], ["1", "0", "1", "0"]),
        "b": (["1", "0", "0", "0"], ["0", "1", "0", "0"]),
        "c": (["0", "0", "0", "0"], ["1", "1", "1", "0"]),
    }
    for label, (ys, ds) in blocks.items():
        for y, d in zip(ys, ds):
            lines.append(f"{y},{label},{d}")
    path = tmp_path / "three.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def sparse_positives_csv(tmp_path) -> str:
    lines = ["y,g,d"]
    for label in ("a", "b"):
        lines.extend([f"1,{label},1", f"0,{label},0", f"0,{label},0"])
    path = tmp_path / "sparse.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def tiny_group_csv(tmp_path, labels) -> str:
    """Groups "a" (320 records), "b" (300) and "tiny" (4), keeping those named in labels."""
    rng = np.random.Generator(np.random.PCG64(0))
    lines = ["y,g,s"]
    for label, size in (("a", 320), ("b", 300), ("tiny", 4)):
        scores = rng.random(size)
        outcomes = rng.random(size) < scores
        if label in labels:
            lines.extend(f"{int(y)},{label},{s:.4f}" for y, s in zip(outcomes, scores))
    path = tmp_path / "tiny_group.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def tiny_group_args(path, *extra):
    return (
        "audit", "--input", path, "--outcome", "y", "--group", "g", "--score", "s",
        "--threshold", "0.5", "--criteria", "all", *extra,
    )


class TestAuditHappyPath:
    def test_markdown_report(self, capsys, clinical_csv):
        code, out, err = run(capsys, *audit_args(clinical_csv))
        assert code == 0 and err == ""
        assert out.startswith("# Fairness audit")
        assert "## F vs M" in out
        assert "| Statistical Parity |" in out

    def test_json_report_validates(self, capsys, clinical_csv):
        code, out, _ = run(capsys, *audit_args(clinical_csv, "--format", "json"))
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_report_schema())
        assert doc["tool"] == {"name": "fairaudit", "version": __version__}
        assert doc["dataset"]["n"] == 800
        assert doc["dataset"]["n_dropped"] == 3
        assert doc["dataset"]["groups"]["F"] + doc["dataset"]["groups"]["M"] == 800

    def test_drops_are_reported_by_reason(self, capsys, clinical_csv):
        _, out, _ = run(capsys, *audit_args(clinical_csv, "--format", "json"))
        reasons = json.loads(out)["dataset"]["dropped_by_reason"]
        assert reasons == {"outcome": 1, "group": 1, "score_and_decision": 1}
        _, out, _ = run(capsys, *audit_args(clinical_csv))
        assert "- dropped rows: 1 without an outcome, 1 without a group label, " in out

    def test_request_echo_omits_workers(self, capsys, clinical_csv):
        _, out, _ = run(
            capsys, *audit_args(clinical_csv, "--format", "json", "--workers", "3")
        )
        request = json.loads(out)["request"]
        assert request["command"] == "audit"
        assert "workers" not in request
        assert len(request["criteria"]) == 9

    def test_default_rows_plus_condition_make_ten(self, capsys, clinical_csv):
        _, out, _ = run(
            capsys,
            *audit_args(
                clinical_csv, "--format", "json", "--condition", "senior=age >= 60"
            ),
        )
        rows = json.loads(out)["fairness"][0]["rows"]
        assert len(rows) == 10
        assert rows[0]["criterion"] == "statistical_parity"
        assert rows[1]["criterion"] == "conditional_statistical_parity"
        assert rows[1]["condition"] == "senior"

    def test_criteria_selection(self, capsys, clinical_csv):
        _, out, _ = run(
            capsys,
            *audit_args(
                clinical_csv, "--format", "json", "--criteria", "statistical_parity"
            ),
        )
        rows = json.loads(out)["fairness"][0]["rows"]
        assert [row["criterion"] for row in rows] == ["statistical_parity"]

    def test_criteria_all_includes_calibration(self, capsys, clinical_csv):
        _, out, _ = run(
            capsys,
            *audit_args(
                clinical_csv,
                "--format",
                "json",
                "--criteria",
                "all",
                "--bins",
                "5",
                "--min-bin-count",
                "5",
            ),
        )
        pair = json.loads(out)["fairness"][0]
        assert pair["calibration"] is not None
        assert pair["calibration"]["bins"] == 5

    def test_covariate_handling_is_reported(self, capsys, clinical_csv):
        _, out, _ = run(capsys, *audit_args(clinical_csv, "--format", "json"))
        block = json.loads(out)["dataset"]
        assert "pao2" in block["imputed_medians"]
        assert "bmi" in block["dropped_covariates"]
        assert block["dropped_covariates"]["sepsis"] == 1.0

    def test_impute_cutoff_is_adjustable(self, capsys, clinical_csv):
        _, out, _ = run(
            capsys,
            *audit_args(
                clinical_csv, "--format", "json", "--impute-max-missing", "0.3"
            ),
        )
        block = json.loads(out)["dataset"]
        assert "bmi" in block["imputed_medians"]
        assert "bmi" not in block["dropped_covariates"]

    def test_epsilon_sections(self, capsys, clinical_csv):
        code, out, _ = run(
            capsys,
            *audit_args(
                clinical_csv,
                "--format",
                "json",
                "--epsilon",
                "0.05",
                "--epsilon",
                "0.1",
            ),
        )
        assert code == 0
        assessments = json.loads(out)["epsilon_assessments"]
        assert [a["epsilon"] for a in assessments] == [0.05, 0.1]
        verdicts = assessments[0]["verdicts"]
        assert set(verdicts.pop("statistical_parity", "missing")) <= set("PASSFAILUNDEFINED")

    def test_bootstrap_attaches_intervals(self, capsys, clinical_csv):
        _, out, _ = run(
            capsys,
            *audit_args(
                clinical_csv, "--format", "json", "--bootstrap", "120", "--seed", "42"
            ),
        )
        rows = json.loads(out)["fairness"][0]["rows"]
        assert all(row["ci_diff"] is not None for row in rows)
        sp = rows[0]
        assert sp["ci_diff"]["lower"] <= sp["diff"] <= sp["ci_diff"]["upper"]

    @pytest.mark.parametrize(
        "extra, level",
        [
            ((), "95"),
            (("--bootstrap", "50"), "95"),
            (("--bootstrap", "50", "--alpha", "0.1"), "90"),
        ],
    )
    def test_markdown_interval_header_names_the_level(self, capsys, clinical_csv, extra, level):
        code, out, _ = run(capsys, *audit_args(clinical_csv, "--seed", "42", *extra))
        assert code == 0
        (header,) = [line for line in out.splitlines() if line.startswith("| Criterion |")]
        assert header.count(f"| {level}% CI |") == 2
        assert header.count("% CI") == 2

    @pytest.mark.parametrize("alpha, level", [("1e-6", "99.9999"), ("1e-7", "99.99999")])
    def test_interval_header_never_rounds_a_level_up_to_100(self, capsys, tmp_path, alpha, level):
        path = tiny_group_csv(tmp_path, ("a", "b"))
        extra = ("--bootstrap", "50", "--alpha", alpha, "--criteria", "statistical_parity")
        code, out, err = run(capsys, *tiny_group_args(path, *extra))
        assert code == 0 and err == ""
        (header,) = [line for line in out.splitlines() if line.startswith("| Criterion |")]
        assert header.endswith(f"| Difference | {level}% CI | Ratio | {level}% CI |")

    def test_diagnostics_block_present(self, capsys, clinical_csv):
        _, out, _ = run(capsys, *audit_args(clinical_csv, "--format", "json"))
        diagnostics = json.loads(out)["diagnostics"]
        assert "error" not in diagnostics
        assert diagnostics["statistic"] >= 0.0
        assert set(diagnostics["prevalence"]) == {"F", "M"}


class TestMetaMetricsViaAudit:
    def test_two_groups_need_opt_in(self, capsys, clinical_csv):
        _, out, _ = run(capsys, *audit_args(clinical_csv, "--format", "json"))
        assert json.loads(out)["meta_metrics"] == []

    def test_meta_flag_adds_results(self, capsys, clinical_csv):
        _, out, _ = run(capsys, *audit_args(clinical_csv, "--format", "json", "--meta"))
        results = json.loads(out)["meta_metrics"]
        assert results
        kinds = {entry["kind"] for entry in results}
        assert "max_min_diff" in kinds and "generalized_entropy" in kinds

    def test_three_groups_get_meta_automatically(self, capsys, three_group_csv):
        code, out, _ = run(
            capsys,
            "audit",
            "--input",
            three_group_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["fairness"]) == 2
        assert doc["meta_metrics"]


class TestOutputFile:
    def test_file_matches_stdout_and_reruns_identically(
        self, capsys, clinical_csv, tmp_path
    ):
        target = tmp_path / "report.json"
        args = audit_args(
            clinical_csv,
            "--format",
            "json",
            "--bootstrap",
            "100",
            "--seed",
            "42",
            "--output",
            str(target),
        )
        assert run(capsys, *args)[0] == 0
        first = target.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert target.read_bytes() == first

        stdout_args = tuple(a for a in args if a != "--output" and a != str(target))
        _, out, _ = run(capsys, *stdout_args)
        assert out.encode("utf-8") == first

    def test_no_temp_files_left_behind(self, capsys, clinical_csv, tmp_path):
        target = tmp_path / "report.md"
        assert run(capsys, *audit_args(clinical_csv, "--output", str(target)))[0] == 0
        leftovers = [n for n in os.listdir(tmp_path) if n.startswith(".fairaudit-")]
        assert leftovers == []

    def test_file_gets_the_mode_open_would_give(self, capsys, clinical_csv, tmp_path):
        # a new report gets 0666 less the umask; a replaced one keeps its mode
        cases = [
            ("new-022.md", 0o022, None, 0o644),
            ("new-077.md", 0o077, None, 0o600),
            ("old-0640.md", 0o022, 0o640, 0o640),
        ]
        for name, umask, existing, expected in cases:
            target = tmp_path / name
            if existing is not None:
                target.write_text("old report\n", encoding="utf-8")
                target.chmod(existing)
            previous = os.umask(umask)
            try:
                code, _, _ = run(capsys, *audit_args(clinical_csv, "--output", str(target)))
            finally:
                os.umask(previous)
            assert code == 0
            assert target.stat().st_mode & 0o777 == expected, name

    def test_missing_directory_exits_one_and_leaves_nothing(
        self, capsys, clinical_csv, tmp_path
    ):
        target = tmp_path / "missing" / "report.md"
        before = sorted(os.listdir(tmp_path))
        code, out, err = run(capsys, *audit_args(clinical_csv, "--output", str(target)))
        assert code == 1
        assert out == ""
        # the message names the target, never the temp file beside it
        assert err == f"fairaudit: cannot write {str(target)!r}: No such file or directory\n"
        assert ".fairaudit-" not in err
        assert sorted(os.listdir(tmp_path)) == before

        # an existing directory as the target: the temp file is written
        # beside it, the rename fails, and the temp file is removed
        target = tmp_path / "existing"
        target.mkdir()
        before = sorted(os.listdir(tmp_path))
        code, out, err = run(capsys, *audit_args(clinical_csv, "--output", str(target)))
        assert code == 1
        assert out == ""
        assert err == f"fairaudit: cannot write {str(target)!r}: Is a directory\n"
        assert ".fairaudit-" not in err
        assert sorted(os.listdir(tmp_path)) == before
        assert os.listdir(target) == []

    def test_worker_count_never_changes_bytes(self, capsys, clinical_csv, tmp_path):
        reports = []
        for workers in ("1", "4"):
            target = tmp_path / f"report-{workers}.json"
            code, _, _ = run(
                capsys,
                *audit_args(
                    clinical_csv,
                    "--format",
                    "json",
                    "--bootstrap",
                    "150",
                    "--seed",
                    "42",
                    "--workers",
                    workers,
                    "--output",
                    str(target),
                ),
            )
            assert code == 0
            reports.append(target.read_bytes())
        assert reports[0] == reports[1]

    def test_worker_count_never_changes_bytes_when_threads_draw(
        self, capsys, tmp_path, monkeypatch
    ):
        # 3,000 rows put each group's 200 resamples in two or three blocks,
        # so a count above 1 draws them on helper threads
        path = str(tmp_path / "clinical-3000.csv")
        write_clinical_csv(path, n=3_000)
        helpers = []

        class Pool(futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                helpers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
        reports = []
        for workers in ("1", "2", "4"):
            args = audit_args(path, "--format", "json", "--bootstrap", "200", "--workers", workers)
            code, out, err = run(capsys, *args)
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[1:] == reports[:1] * 2
        assert 1 in helpers and 2 in helpers


class TestErrors:
    def test_missing_required_flag(self, capsys):
        code, out, err = run(
            capsys, "audit", "--input", "/nonexistent.csv", "--outcome", "y"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("fairaudit: ")
        assert "--group" in err

    def test_unknown_column(self, capsys, clinical_csv):
        code, _, err = run(
            capsys,
            "audit",
            "--input",
            clinical_csv,
            "--outcome",
            "nope",
            "--group",
            "sex",
            "--score",
            "risk",
            "--threshold",
            "0.5",
        )
        assert code == 1
        assert "nope" in err

    def test_unclosed_quote_names_its_line(self, capsys, tmp_path):
        path = tmp_path / "quote.csv"
        path.write_text(
            "y,s,g,ward\n1,0.9,a,icu\n0,0.2,b,med\n1,0.8,a,med\n"
            '0,0.3,b,"icu\n1,0.6,a,icu\n0,0.1,b,med\n1,0.7,b,icu\n'
        )
        code, out, err = run(
            capsys, "audit", "--input", str(path), "--outcome", "y", "--group", "g",
            "--score", "s", "--threshold", "0.5",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("fairaudit: line 5 of ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("before", [0, 9000])
    def test_quote_open_past_the_field_limit_names_its_line(self, capsys, tmp_path, before):
        # the open quote swallows more than csv's 128 KiB field limit
        rows = [f"{i % 2},0.{i % 9 + 1},{'ab'[i % 2]}\n" for i in range(30_000)]
        path = tmp_path / "quote.csv"
        path.write_text("y,s,g\n" + "".join(rows[:before]) + '1,0.5,"x\n' + "".join(rows))
        code, out, err = run(
            capsys, "audit", "--input", str(path), "--outcome", "y", "--group", "g",
            "--score", "s", "--threshold", "0.5",
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"fairaudit: line {before + 2} of ")
        assert "field larger than field limit" in err
        assert err.count("\n") == 1

    def test_quote_open_in_the_header_past_the_field_limit(self, capsys, tmp_path):
        rows = [f"{i % 2},0.{i % 9 + 1},{'ab'[i % 2]}\n" for i in range(30_000)]
        path = tmp_path / "quote.csv"
        path.write_text('"y,s,g\n' + "".join(rows))
        code, out, err = run(
            capsys, "audit", "--input", str(path), "--outcome", "y", "--group", "g",
            "--score", "s", "--threshold", "0.5",
        )
        assert (code, out) == (1, "")
        assert err.startswith("fairaudit: line 1 of ")
        assert "field larger than field limit" in err

    def test_bad_cell_before_an_overlong_field_is_reported_first(self, capsys, tmp_path):
        rows = [f"{i % 2},0.{i % 9 + 1},{'ab'[i % 2]}\n" for i in range(30_000)]
        path = tmp_path / "quote.csv"
        path.write_text("y,s,g\n1,0.4,a\n7,0.5,b\n" + '1,0.5,"x\n' + "".join(rows))
        code, _, err = run(
            capsys, "audit", "--input", str(path), "--outcome", "y", "--group", "g",
            "--score", "s", "--threshold", "0.5",
        )
        assert code == 1
        assert err.startswith("fairaudit: line 3 of ")
        assert "y value outside {0, 1}" in err

    def test_missing_file(self, capsys):
        code, _, err = run(
            capsys,
            "audit",
            "--input",
            "/no/such/file.csv",
            "--outcome",
            "y",
            "--group",
            "g",
            "--threshold",
            "0.5",
        )
        assert code == 1
        assert err.startswith("fairaudit: ")

    def test_threshold_out_of_range(self, capsys, clinical_csv):
        code, _, err = run(capsys, *audit_args(clinical_csv)[:-2], "--threshold", "1.5")
        assert code == 1
        assert "threshold" in err

    def test_unknown_criterion(self, capsys, clinical_csv):
        code, _, err = run(capsys, *audit_args(clinical_csv, "--criteria", "sparkle"))
        assert code == 1
        assert "unknown criterion" in err

    @pytest.mark.parametrize(
        "flag",
        [
            "senior",
            "=age >= 60",
            "9lives=age >= 60",
            "bad name=age >= 60",
        ],
    )
    def test_malformed_condition_flag(self, capsys, clinical_csv, flag):
        code, _, err = run(capsys, *audit_args(clinical_csv, "--condition", flag))
        assert code == 1
        assert "condition" in err

    def test_duplicate_condition_name(self, capsys, clinical_csv):
        code, _, err = run(
            capsys,
            *audit_args(
                clinical_csv,
                "--condition",
                "senior=age >= 60",
                "--condition",
                "senior=age >= 70",
            ),
        )
        assert code == 1
        assert "duplicate" in err

    @pytest.mark.parametrize("flag", ["senior=", "senior=   "])
    def test_empty_condition_expression(self, capsys, clinical_csv, flag):
        code, _, err = run(capsys, *audit_args(clinical_csv, "--condition", flag))
        assert code == 1
        assert err == "fairaudit: empty condition expression\n"

    def test_unparseable_condition_expression(self, capsys, clinical_csv):
        code, _, err = run(
            capsys, *audit_args(clinical_csv, "--condition", "senior=age >> 60")
        )
        assert code == 1

    def test_negative_epsilon(self, capsys, clinical_csv):
        code, _, err = run(capsys, *audit_args(clinical_csv, "--epsilon", "-0.05"))
        assert code == 1
        assert "epsilon" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf"])
    def test_non_finite_epsilon_rejected(self, capsys, clinical_csv, epsilon):
        code, out, err = run(
            capsys, *audit_args(clinical_csv, "--epsilon", epsilon, "--format", "json")
        )
        assert code == 1
        assert out == ""
        assert err.startswith("fairaudit: ") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--bootstrap", "1000001", "bootstrap must be at most 1000000"),
            ("--bins", "10001", "bins must be at most 10000"),
            ("--workers", "65", "workers must be at most 64"),
        ],
    )
    def test_oversized_request_rejected(self, capsys, clinical_csv, flag, value, message):
        code, out, err = run(capsys, *audit_args(clinical_csv, flag, value))
        assert code == 1
        assert out == ""
        assert err == f"fairaudit: {message}\n"

    def test_the_largest_allowed_request_is_accepted(self):
        request = AuditRequest(
            input="in.csv", outcome="y", group="g", bins=10**4, bootstrap=10**6, workers=64
        )
        _, _, config = request.validate()
        assert (config.iterations, config.workers) == (10**6, 64)

    def test_zero_workers_rejected(self, capsys, clinical_csv):
        code, out, err = run(capsys, *audit_args(clinical_csv, "--workers", "0"))
        assert code == 1
        assert out == ""
        assert err == "fairaudit: workers must be at least 1\n"

    def test_no_decisions_available(self, capsys, clinical_csv):
        code, _, err = run(
            capsys,
            "audit",
            "--input",
            clinical_csv,
            "--outcome",
            "died",
            "--group",
            "sex",
            "--score",
            "risk",
        )
        assert code == 1
        assert err == "fairaudit: no decisions: bind a decision column or apply a threshold\n"

    @pytest.mark.parametrize("command", ["audit", "diagnose"])
    def test_blank_decisions_are_counted(self, capsys, tmp_path, command):
        # records with a score but a blank decision are kept, so the bound
        # decision column does not cover every record
        path = tmp_path / "blank.csv"
        path.write_text("y,g,s,d\n1,a,0.9,1\n0,a,0.2,\n1,b,0.7,0\n0,b,0.4,\n0,b,0.1,0\n")
        argv = [command, "--input", str(path), "--outcome", "y", "--group", "g", "--score", "s"]
        code, out, err = run(capsys, *argv, "--decision", "d")
        assert (code, out) == (1, "")
        assert err == (
            "fairaudit: 2 of 5 records have no decision; "
            "a threshold derives decisions from the scores\n"
        )
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "fairaudit: no decisions: bind a decision column or apply a threshold\n"

    def test_threshold_without_a_score_column(self, capsys, three_group_csv):
        argv = ["audit", "--input", three_group_csv, "--outcome", "y", "--group", "g"]
        code, out, err = run(capsys, *argv, "--decision", "d", "--threshold", "0.5")
        assert (code, out) == (1, "")
        assert err == "fairaudit: cannot apply a threshold: risk scores not loaded\n"

    def test_threshold_with_blank_scores(self, capsys, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("y,g,s,d\n1,a,0.9,1\n0,a,,0\n1,b,0.7,0\n0,b,0.4,1\n")
        argv = ["audit", "--input", str(path), "--outcome", "y", "--group", "g", "--score", "s"]
        code, out, err = run(capsys, *argv, "--decision", "d", "--threshold", "0.5")
        assert (code, out) == (1, "")
        assert err == "fairaudit: cannot apply a threshold: risk scores missing for some records\n"

    def test_meta_notes_missing_decisions_as_audit_refuses_them(self, capsys, clinical_csv):
        io = ("--input", clinical_csv, "--outcome", "died", "--group", "sex", "--score", "risk")
        code, out, err = run(capsys, "meta", *io, "--metric", "fpr", "--format", "json")
        assert (code, err) == (0, "")
        notes = {entry["note"] for entry in json.loads(out)["meta_metrics"]}
        code, _, err = run(capsys, "audit", *io)
        assert code == 1
        assert [f"fairaudit: {note}\n" for note in notes] == [err]

    def test_unknown_reference_group(self, capsys, clinical_csv):
        # the pair is checked before the decisions, so without --threshold the
        # unknown reference is still the one reported
        for argv in (audit_args(clinical_csv), audit_args(clinical_csv)[:-2]):
            code, out, err = run(capsys, *argv, "--reference", "X")
            assert (code, out, err) == (1, "", "fairaudit: unknown group: 'X'\n")

    def test_degenerate_bootstrap_exits_two(self, capsys, sparse_positives_csv):
        code, _, err = run(
            capsys,
            "audit",
            "--input",
            sparse_positives_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
            "--criteria",
            "equal_opportunity",
            "--bootstrap",
            "50",
        )
        assert code == 2
        assert err.startswith("fairaudit: ")
        assert "discarded" in err

    def test_degenerate_bootstrap_names_metric_and_pair(self, capsys, sparse_positives_csv):
        code, _, err = run(
            capsys,
            "audit",
            "--input",
            sparse_positives_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
            "--criteria",
            "equal_opportunity",
            "--bootstrap",
            "50",
        )
        assert code == 2
        assert re.match(r"fairaudit: (fnr|tpr), 'a' vs 'b': bootstrap discarded \d+ of 50 ", err)

    def test_calibration_failure_of_one_pair_becomes_its_note(self, capsys, tmp_path):
        path = tiny_group_csv(tmp_path, ("a", "b", "tiny"))
        code, out, err = run(capsys, *tiny_group_args(path, "--format", "json"))
        assert code == 0 and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, load_report_schema())
        note = "calibration criteria skipped: group 'tiny' has no score bin with at least 10 records"
        by_pair = {(p["group_a"], p["group_b"]): p for p in doc["fairness"]}
        assert set(by_pair) == {("a", "b"), ("a", "tiny")}
        assert by_pair["a", "tiny"]["notes"] == [note]
        assert by_pair["a", "tiny"]["calibration"] is None
        assert by_pair["a", "b"]["notes"] == []
        assert by_pair["a", "b"]["calibration"] is not None
        code, out, err = run(capsys, *tiny_group_args(path))
        assert code == 0 and err == ""
        assert out.count(f"- {note}") == 1

    def test_calibration_failure_of_every_pair_exits_two(self, capsys, tmp_path):
        path = tiny_group_csv(tmp_path, ("a", "tiny"))
        code, out, err = run(capsys, *tiny_group_args(path))
        assert code == 2 and out == ""
        assert err == "fairaudit: group 'tiny' has no score bin with at least 10 records\n"

    def test_ratio_bound_overflow_exits_two(self, capsys, tmp_path):
        # group b's negatives score 1e-320 (subnormal): the log ratio of the
        # mean negative scores is ~737, and its interval bounds overflow a float
        lines = ["y,g,s"]
        for label in ("a", "b"):
            for i in range(200):
                y = int(i % 3 == 0)
                score = "1e-320" if label == "b" and not y else f"0.{(7 * i) % 10}5"
                lines.append(f"{y},{label},{score}")
        path = tmp_path / "subnormal.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(
            capsys,
            *("audit", "--input", str(path), "--outcome", "y", "--group", "g", "--score", "s"),
            *("--threshold", "0.5", "--bootstrap", "200"),
        )
        assert code == 2 and out == ""
        assert err == (
            "fairaudit: mean_score_neg, 'a' vs 'b': ratio interval bound overflows a float\n"
        )

    def test_ratio_overflowing_a_float_becomes_a_note(self, capsys, tmp_path):
        # group b's negatives score 1e-320, so 0.3 / 1e-320 overflows a float
        lines = ["y,g,s"]
        for label in ("a", "b"):
            for i in range(200):
                y = i % 2
                score = "0.9" if y else "0.3" if label == "a" else "1e-320"
                lines.append(f"{y},{label},{score}")
        path = tmp_path / "subnormal.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ("audit", "--input", str(path), "--outcome", "y", "--group", "g", "--score", "s")
        args += ("--threshold", "0.5")
        code, out, err = run(capsys, *args, "--format", "json")
        assert code == 0 and err == ""
        (pair,) = json.loads(out)["fairness"]
        (row,) = [r for r in pair["rows"] if r["metric"] == "mean_score_neg"]
        assert row["value_a"] == 0.3 and row["value_b"] == 1e-320
        assert row["ratio"] == "UNDEFINED"
        assert row["notes"] == ["ratio undefined: overflows a float"]
        code, out, err = run(capsys, *args)
        assert code == 0 and err == ""
        assert "- Balance for Negative Class: ratio undefined: overflows a float\n" in out

    def test_score_missing_for_some_records_is_not_called_unloaded(self, capsys, tmp_path):
        # one record of group a has a decision but no score
        path = tmp_path / "blank_score.csv"
        path.write_text(
            "y,g,s,d\n1,a,0.9,1\n0,a,,0\n1,a,0.7,1\n0,a,0.2,0\n"
            "1,b,0.8,1\n0,b,0.3,0\n1,b,0.6,0\n0,b,0.1,1\n",
            encoding="utf-8",
        )
        args = ("audit", "--input", str(path), "--outcome", "y", "--group", "g", "--score", "s")
        args += ("--decision", "d", "--criteria", "all")
        code, out, err = run(capsys, *args, "--format", "json")
        assert code == 0 and err == ""
        note = "risk scores missing for some records"
        score_metrics = ("mean_score_pos", "mean_score_neg", "brier_score")
        for pair in json.loads(out)["fairness"]:
            score_rows = [r for r in pair["rows"] if r["metric"] in score_metrics]
            assert len(score_rows) == 3
            for row in score_rows:
                assert (row["status"], row["notes"]) == ("not_evaluated", [note])
            assert pair["notes"] == [f"calibration criteria skipped: {note}"]
        code, out, err = run(capsys, *args)
        assert code == 0 and err == ""
        assert "not loaded" not in out
        assert out.count(note) == 4

    def test_condition_on_a_dropped_covariate_names_the_drop(self, capsys, tmp_path):
        # age is blank in every 4th row and imputation drops it; sepsis is empty
        lines = ["y,g,s,age,sepsis"]
        for i in range(40):
            lines.append(f"{i % 2},{'ab'[i % 3 % 2]},0.5,{'' if i % 4 == 3 else 30 + i},")
        path = tmp_path / "dropped.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ("audit", "--input", str(path), "--outcome", "y", "--group", "g", "--score", "s")
        args += ("--threshold", "0.5", "--condition", "old=age > 40")
        args += ("--condition", "sep=sepsis == 'yes'")
        notes = {
            "old": "covariate 'age' was dropped: 25% of its cells are missing",
            "sep": "covariate 'sepsis' was dropped: 100% of its cells are missing",
        }
        code, out, err = run(capsys, *args, "--format", "json")
        assert code == 0 and err == ""
        rows = json.loads(out)["fairness"][0]["rows"]
        conditional = {r["condition"]: r for r in rows if r["condition"] is not None}
        assert {name: (r["status"], r["notes"]) for name, r in conditional.items()} == {
            name: ("error", [note]) for name, note in notes.items()
        }
        code, out, err = run(capsys, *args)
        assert code == 0 and err == ""
        for name, note in notes.items():
            assert f"- Conditional Statistical Parity ({name}): {note}\n" in out
        assert "unknown covariate" not in out

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--alpha", "0", "alpha outside (0, 1)"),
            ("--alpha", "1.5", "alpha outside (0, 1)"),
            ("--seed", "-1", "seed must be non-negative"),
        ],
    )
    def test_alpha_and_seed_checked_without_bootstrap(
        self, capsys, clinical_csv, flag, value, message
    ):
        code, out, err = run(capsys, *audit_args(clinical_csv, flag, value))
        assert code == 1
        assert out == ""
        assert err == f"fairaudit: {message}\n"

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("audit", ("--impute-max-missing", "2"), "max_missing outside [0, 1]"),
            ("meta", ("--metric", "bogus"), "unknown metric: 'bogus'"),
            ("meta", ("--kind", "bogus"), "unknown meta-metric kind: 'bogus'"),
            ("diagnose", ("--level", "2"), "test level outside (0, 1)"),
            ("meta", ("--threshold", "2"), "threshold outside [0, 1]"),
            ("diagnose", ("--threshold", "-1"), "threshold outside [0, 1]"),
            (
                "audit",
                ("--criteria", "conditional_statistical_parity"),
                "conditional statistical parity needs at least one condition",
            ),
            ("meta", ("--kind", "variance", "--exponent", "3"), "variance takes no exponent"),
            ("audit", ("--min-bin-count", "0"), "min_bin_count must be at least 1"),
            (
                "audit",
                ("--bootstrap", "50", "--alpha", "1e-17"),
                "alpha too small: 1 - alpha/2 rounds to 1",
            ),
            ("audit", ("--criteria", ","), "empty criteria list"),
            ("audit", ("--epsilon", "abc"), "argument --epsilon: invalid float value: 'abc'"),
            ("audit", ("--format", "xml"), "argument --format: invalid choice: 'xml'"),
        ],
    )
    def test_flags_checked_before_the_input_is_read(self, capsys, command, flags, message):
        code, out, err = run(
            capsys,
            command,
            "--input",
            "/nonexistent.csv",
            "--outcome",
            "y",
            "--group",
            "g",
            "--score",
            "s",
            "--threshold",
            "0.5",
            *flags,
        )
        assert code == 1
        assert out == ""
        # argparse spells the list after an invalid choice differently across versions
        line, _, choices = err.partition(" (choose from ")
        assert line + ("\n" if choices.endswith(")\n") else "") == f"fairaudit: {message}\n"


class TestAuditRequestFromFlags:
    """Audit flags reach AuditRequest by dest name; these catch a field the copy misses."""

    REQUIRED = ("audit", "--input", "in.csv", "--outcome", "died", "--group", "sex")

    def test_every_field_but_two_is_an_audit_dest(self):
        dests = set(vars(build_parser().parse_args(self.REQUIRED)))
        names = {f.name for f in fields(AuditRequest)} - {"conditions", "epsilon"}
        assert names <= dests, names - dests

    def test_every_flag_reaches_its_field(self, monkeypatch, tmp_path):
        output = str(tmp_path / "report.json")
        argv = [
            *self.REQUIRED,
            *("--score", "risk", "--decision", "treated", "--reference", "M"),
            *("--threshold", "0.25", "--criteria", "all", "--condition", "old=age >= 60"),
            *("--bootstrap", "200", "--alpha", "0.1", "--seed", "5"),
            *("--bins", "7", "--min-bin-count", "3", "--epsilon", "0.05", "--epsilon", "0.1"),
            *("--format", "json", "--output", output, "--meta", "--workers", "2"),
            *("--impute-max-missing", "0.5"),
        ]
        expected = AuditRequest(
            input="in.csv",
            outcome="died",
            group="sex",
            score="risk",
            decision="treated",
            reference="M",
            threshold=0.25,
            criteria="all",
            conditions={"old": "age >= 60"},
            bootstrap=200,
            alpha=0.1,
            seed=5,
            bins=7,
            min_bin_count=3,
            epsilon=(0.05, 0.1),
            meta=True,
            impute_max_missing=0.5,
            workers=2,
        )
        for f in fields(AuditRequest):
            if f.default is not MISSING:
                assert getattr(expected, f.name) != f.default, f.name
            elif f.default_factory is not MISSING:
                assert getattr(expected, f.name) != f.default_factory(), f.name

        seen: list[AuditRequest] = []
        monkeypatch.setattr("fairaudit.cli.run_audit", seen.append)
        args = build_parser().parse_args(argv)
        args.handler(args)
        assert seen == [expected]


class TestRunAuditResolvesEachFlagOnce:
    """run_audit uses what AuditRequest.validate builds, and builds none of it again."""

    def test_each_condition_is_parsed_once(self, capsys, monkeypatch, clinical_csv):
        parsed: list[str] = []
        parse = ConditionPredicate.parse

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(ConditionPredicate, "parse", counting_parse)
        args = ("--condition", "senior=age >= 60", "--condition", "icu=ward == 'icu'")
        code, _, err = run(capsys, *audit_args(clinical_csv, *args))
        assert code == 0 and err == ""
        assert parsed == ["age >= 60", "ward == 'icu'"]

    def test_validated_values_reach_echo_and_every_pair(self, monkeypatch, tmp_path):
        rng = np.random.Generator(np.random.PCG64(1))
        lines = ["y,g,s,age"]
        for i in range(300):
            lines.append(f"{int(rng.random() < 0.4)},{'abc'[i % 3]},{rng.random():.3f},{i % 60}")
        path = tmp_path / "scored.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        request = AuditRequest(
            input=str(path),
            outcome="y",
            group="g",
            score="s",
            threshold=0.5,
            criteria="statistical_parity,default",
            conditions={"old": "age >= 30"},
            bootstrap=20,
        )
        validated, echoed, evaluated = [], [], []
        validate, echo, evaluate = AuditRequest.validate, AuditRequest.echo, cli.evaluate_all

        def recording_validate(self):
            validated.append(validate(self))
            return validated[-1]

        def recording_echo(self, criteria):
            echoed.append(criteria)
            return echo(self, criteria)

        def recording_evaluate(dataset, group_a, group_b, **kwargs):
            evaluated.append((kwargs["criteria"], kwargs["conditions"], kwargs["bootstrap"]))
            return evaluate(dataset, group_a, group_b, **kwargs)

        monkeypatch.setattr(AuditRequest, "validate", recording_validate)
        monkeypatch.setattr(AuditRequest, "echo", recording_echo)
        monkeypatch.setattr(cli, "evaluate_all", recording_evaluate)
        document = cli.run_audit(request)
        ((criteria, conditions, config),) = validated
        parity = FairnessCriterion.STATISTICAL_PARITY
        assert criteria == (parity, *(c for c in DEFAULT_CRITERIA if c is not parity))
        assert list(conditions) == ["old"] and isinstance(conditions["old"], ConditionPredicate)
        assert (config.iterations, config.alpha, config.seed) == (20, 0.05, 0)
        assert len(echoed) == 1 and echoed[0] is criteria
        assert len(evaluated) == 2
        for pair in evaluated:
            assert all(got is want for got, want in zip(pair, (criteria, conditions, config)))
        assert document["request"]["criteria"] == [c.value for c in criteria]

    def test_without_bootstrap_the_config_is_none(self):
        request = AuditRequest(input="in.csv", outcome="y", group="g", criteria="all")
        criteria, conditions, config = request.validate()
        assert FairnessCriterion.CONDITIONAL_STATISTICAL_PARITY not in criteria
        assert conditions == {} and config is None

    def test_reference_pairs_come_in_label_order(self, capsys, three_group_csv):
        args = ("--outcome", "y", "--group", "g", "--decision", "d", "--reference", "b")
        code, out, err = run(capsys, "audit", "--input", three_group_csv, *args, "--format", "json")
        assert code == 0 and err == ""
        document = json.loads(out)
        assert document["request"]["reference"] == "b"
        pairs = [(pair["group_a"], pair["group_b"]) for pair in document["fairness"]]
        assert pairs == [("b", "a"), ("b", "c")]


class TestMetaSubcommand:
    def test_default_kinds_for_positive_rate(self, capsys, three_group_csv):
        code, out, _ = run(
            capsys,
            "meta",
            "--input",
            three_group_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["request"]["command"] == "meta"
        results = {entry["kind"]: entry for entry in doc["meta_metrics"]}
        assert set(results) == {
            "max_min_diff",
            "max_min_ratio",
            "max_abs_diff",
            "mean_abs_dev",
            "variance",
            "generalized_entropy",
        }
        # per-group positive rates are 0.5, 0.25, 0.75
        assert results["max_min_diff"]["value"] == pytest.approx(0.5, rel=1e-12)
        assert results["max_min_ratio"]["value"] == pytest.approx(3.0, rel=1e-12)
        assert results["variance"]["value"] == pytest.approx(0.0625, rel=1e-12)
        assert results["generalized_entropy"]["value"] == pytest.approx(
            1 / 12, rel=1e-12
        )
        assert results["max_min_diff"]["groups"] == ["a", "b", "c"]

    def test_selected_kind_and_metric(self, capsys, three_group_csv):
        code, out, _ = run(
            capsys,
            "meta",
            "--input",
            three_group_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
            "--metric",
            "accuracy",
            "--kind",
            "variance",
            "--format",
            "json",
        )
        assert code == 0
        (entry,) = json.loads(out)["meta_metrics"]
        assert entry["metric"] == "accuracy"
        assert entry["kind"] == "variance"

    def test_repeated_metric_and_kind_give_one_row(self, capsys, three_group_csv):
        io = ("--input", three_group_csv, "--outcome", "y", "--group", "g", "--decision", "d")
        repeated = ("--metric", "fpr", "--metric", "fpr", "--kind", "variance", "--kind", "variance")
        code, out, _ = run(capsys, "meta", *io, *repeated, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["request"]["metrics"], doc["request"]["kinds"]) == (["fpr"], ["variance"])
        assert [(e["metric"], e["kind"]) for e in doc["meta_metrics"]] == [("fpr", "variance")]

    def test_undefined_metric_becomes_note(self, capsys, three_group_csv):
        code, out, _ = run(
            capsys,
            "meta",
            "--input",
            three_group_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
            "--metric",
            "fnr",
            "--kind",
            "variance",
            "--format",
            "json",
        )
        assert code == 0
        (entry,) = json.loads(out)["meta_metrics"]
        assert "undefined for group(s) 'c'" in entry["note"]

    def test_markdown_table(self, capsys, three_group_csv):
        code, out, _ = run(
            capsys,
            "meta",
            "--input",
            three_group_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
        )
        assert code == 0
        assert "## Meta-metrics" in out
        assert "| positive_rate | max_min_diff |" in out

    @pytest.mark.parametrize("exponent", ["nan", "inf", "0", "1"])
    def test_non_finite_exponent_rejected(self, capsys, three_group_csv, exponent):
        code, out, err = run(
            capsys,
            "meta",
            "--input",
            three_group_csv,
            "--outcome",
            "y",
            "--group",
            "g",
            "--decision",
            "d",
            "--exponent",
            exponent,
            "--format",
            "json",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("fairaudit: ") and err.count("\n") == 1
        assert ("finite" if exponent in ("nan", "inf") else "must avoid 0 and 1") in err

    def test_value_that_is_not_finite_becomes_a_note(self, capsys, three_group_csv):
        # positive rates 0.5, 0.25, 0.75: (0.75 / 0.5) ** 1e308 overflows
        code, out, err = run(
            capsys,
            *("meta", "--input", three_group_csv, "--outcome", "y", "--group", "g"),
            *("--decision", "d", "--kind", "generalized_entropy", "--exponent", "1e308"),
            *("--format", "json"),
        )
        assert code == 0 and err == ""
        (entry,) = json.loads(out)["meta_metrics"]
        assert entry == {
            "kind": "generalized_entropy",
            "metric": "positive_rate",
            "note": "generalized_entropy is not finite for these group values",
        }


class TestDiagnoseSubcommand:
    def test_json_document(self, capsys, clinical_csv):
        code, out, _ = run(
            capsys,
            "diagnose",
            "--input",
            clinical_csv,
            "--outcome",
            "died",
            "--group",
            "sex",
            "--score",
            "risk",
            "--threshold",
            "0.5",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_report_schema())
        assert doc["request"]["command"] == "diagnose"
        assert doc["request"]["level"] == 0.05
        assert doc["fairness"] == []
        assert isinstance(doc["diagnostics"]["statistic"], float)

    def test_custom_level_echoed(self, capsys, clinical_csv):
        code, out, _ = run(
            capsys,
            "diagnose",
            "--input",
            clinical_csv,
            "--outcome",
            "died",
            "--group",
            "sex",
            "--score",
            "risk",
            "--threshold",
            "0.5",
            "--level",
            "0.01",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["request"]["level"] == 0.01
        assert doc["diagnostics"]["level"] == 0.01

    def test_needs_decisions(self, capsys, clinical_csv):
        code, _, err = run(
            capsys,
            "diagnose",
            "--input",
            clinical_csv,
            "--outcome",
            "died",
            "--group",
            "sex",
            "--score",
            "risk",
        )
        assert code == 1
        assert "decisions" in err

    @pytest.mark.parametrize("command", ["audit", "diagnose"])
    def test_small_counts_become_a_note(self, capsys, tmp_path, command):
        path = tmp_path / "tiny.csv"
        path.write_text("y,g,s\n1,a,0.9\n0,a,0.2\n1,b,0.7\n0,b,0.4\n", encoding="utf-8")
        argv = [
            command, "--input", str(path), "--outcome", "y", "--group", "g",
            "--score", "s", "--threshold", "0.5",
        ]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, load_report_schema())
        (note,) = doc["diagnostics"]["notes"]
        assert note.startswith("chi-square approximation is unreliable")
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert f"- {note}" in out.splitlines()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        assert main([]) == 1
        assert capsys.readouterr().err.startswith("fairaudit: ")

    def test_public_names(self):
        import fairaudit

        for name in fairaudit.__all__:
            assert hasattr(fairaudit, name), name
        removed = (
            "Record",
            "from_records",
            "confusion_counts",
            "brier_score",
            "mean_absolute_error",
            "parse_condition",
        )
        for name in removed:
            assert not hasattr(fairaudit, name), name

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
