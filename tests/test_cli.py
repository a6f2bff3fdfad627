"""End-to-end command-line behaviour, driven in process through main()."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from fairaudit import __version__, load_report_schema
from fairaudit.cli import main


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
        assert "--threshold" in err

    def test_unknown_reference_group(self, capsys, clinical_csv):
        code, _, err = run(capsys, *audit_args(clinical_csv, "--reference", "X"))
        assert code == 1
        assert "reference" in err

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

    @pytest.mark.parametrize("exponent", ["nan", "inf"])
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
        assert "finite" in err


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
