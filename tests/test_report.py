"""Report document assembly, JSON serialization, and Markdown rendering."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from itertools import groupby

import jsonschema
import numpy as np
import pytest

from fairaudit import (
    AuditDataset,
    BootstrapConfig,
    UNDEFINED,
    __version__,
    build_document,
    emit_markdown,
    epsilon_assessment,
    evaluate_all,
    incompatibility_verdict,
    load_report_schema,
    meta,
    render_json,
)
from fairaudit.report import (
    _format_level,
    format_general,
    format_percent,
    format_plain,
    to_jsonable,
)

from conftest import toy_dataset


def cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


class TestFormatters:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.17, "17%"),
            (0.08, "8%"),
            (1.0, "100%"),
            (0.0, "0%"),
            (-0.24000000000000005, "-24%"),
            (0.125, "12%"),
            (-0.0001, "0%"),
            (UNDEFINED, "-"),
            ("UNDEFINED", "-"),
            (None, "-"),
        ],
    )
    def test_percent(self, value, expected):
        assert format_percent(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [
            (2.125, "2.12"),
            (1.5, "1.5"),
            (1.4999999999999998, "1.5"),
            (2.0, "2"),
            (13.6, "13.6"),
            (0.94, "0.94"),
            (-8.49, "-8.49"),
            (-0.001, "0"),
            (0.0, "0"),
            (UNDEFINED, "-"),
            (None, "-"),
        ],
    )
    def test_plain(self, value, expected):
        assert format_plain(value) == expected

    def test_general(self):
        assert format_general(0.03318165805399439) == "0.0331817"
        assert format_general(4.536381781890764) == "4.53638"
        assert format_general(0.5) == "0.5"
        assert format_general("UNDEFINED") == "-"

    def test_booleans_are_not_numbers(self):
        assert format_percent(True) == "-"
        assert format_plain(False) == "-"

    def test_a_level_of_exactly_100_reads_100(self):
        # an audit's alpha never gets here (BootstrapConfig rejects it), but
        # a hand-built document's can, and a level of 100 must end the search
        assert _format_level(1e-17) == "100"
        assert _format_level(1e-7) == "99.99999"


class TestToJsonable:
    def test_undefined_and_nonfinite_become_token(self):
        assert to_jsonable(UNDEFINED) == "UNDEFINED"
        assert to_jsonable(math.nan) == "UNDEFINED"
        assert to_jsonable(math.inf) == "UNDEFINED"
        assert to_jsonable(np.float64("nan")) == "UNDEFINED"
        assert to_jsonable(np.float32(np.inf)) == "UNDEFINED"

    def test_numpy_scalars_become_python(self):
        assert to_jsonable(np.float64(0.5)) == 0.5
        assert type(to_jsonable(np.float64(0.5))) is float
        assert to_jsonable(np.int64(3)) == 3
        assert type(to_jsonable(np.int64(3))) is int
        assert to_jsonable(np.bool_(True)) is True
        assert type(to_jsonable(np.str_("a"))) is str

    def test_passthrough(self):
        assert to_jsonable(None) is None
        assert to_jsonable("text") == "text"
        assert to_jsonable(7) == 7

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


def full_document():
    ds = toy_dataset()
    report = evaluate_all(
        ds,
        "F",
        "M",
        bootstrap=BootstrapConfig(iterations=40, seed=3, degenerate_tolerance=1.0),
    )
    values = {"F": 3 / 8, "M": 2 / 4}
    verdict = incompatibility_verdict(ds)
    return build_document(
        request={"input": "toy.csv", "reference": "F"},
        dataset=ds,
        reports=[report],
        meta_results=[meta(values, "max_min_diff")],
        diagnostics=verdict,
        assessments=[epsilon_assessment(report, 0.05)],
    )


class TestBuildDocument:
    def test_top_level_key_order(self):
        doc = full_document()
        assert list(doc) == [
            "tool",
            "request",
            "dataset",
            "fairness",
            "meta_metrics",
            "diagnostics",
            "epsilon_assessments",
        ]
        assert doc["tool"] == {"name": "fairaudit", "version": __version__}

    def test_dataset_block(self):
        doc = full_document()
        block = doc["dataset"]
        assert block["n"] == 12
        assert block["groups"] == {"F": 8, "M": 4}
        assert block["threshold"] is None

    def test_dataset_block_counts_drops_by_reason(self):
        reasons = {"outcome": 2, "group": 0, "score_and_decision": 1}
        ds = dataclasses.replace(toy_dataset(), dropped_by_reason=reasons)
        doc = json.loads(render_json(build_document(dataset=ds)))
        assert list(doc["dataset"])[:3] == ["n", "n_dropped", "dropped_by_reason"]
        assert doc["dataset"]["dropped_by_reason"] == reasons
        jsonschema.validate(doc, load_report_schema())
        with pytest.raises(jsonschema.ValidationError):
            doc["dataset"]["dropped_by_reason"]["typo"] = 1
            jsonschema.validate(doc, load_report_schema())

    def test_row_blocks_carry_everything(self):
        doc = full_document()
        rows = doc["fairness"][0]["rows"]
        assert len(rows) == 9
        first = rows[0]
        assert first["criterion"] == "statistical_parity"
        assert first["label"] == "Statistical Parity"
        assert first["category"] == "independence"
        assert first["value_a"] == 3 / 8
        assert first["diff"] == 3 / 8 - 2 / 4
        assert first["ci_diff"]["method"] == "wald_diff"
        assert first["status"] == "evaluated"

    def test_json_round_trip_is_identity(self):
        doc = full_document()
        text = render_json(doc)
        parsed = json.loads(text)
        assert json.loads(json.dumps(parsed)) == parsed
        assert render_json(parsed) == text

    def test_no_nan_tokens_in_output(self):
        ds = AuditDataset(
            outcome=np.array([0, 0, 1, 0, 0, 1]),
            group=np.array(["a"] * 3 + ["b"] * 3, dtype=object),
            decision=np.array([1, 0, 1, 0, 0, 1]),
        )
        report = evaluate_all(ds, "a", "b", criteria=["predictive_equality"])
        doc = build_document(reports=[report])
        text = render_json(doc)
        assert "NaN" not in text and "Infinity" not in text
        row = json.loads(text)["fairness"][0]["rows"][0]
        assert row["ratio"] == "UNDEFINED"

    def test_validates_against_shipped_schema(self):
        schema = load_report_schema()
        assert schema["$schema"].startswith("http://json-schema.org/")
        doc = json.loads(render_json(full_document()))
        jsonschema.validate(doc, schema)

    def test_minimal_document_validates_too(self):
        doc = json.loads(render_json(build_document()))
        jsonschema.validate(doc, load_report_schema())


SP_ROW = {
    "criterion": "statistical_parity",
    "label": "Statistical Parity",
    "category": "independence",
    "metric": "positive_rate",
    "condition": None,
    "group_a": "F",
    "group_b": "M",
    "value_a": 0.17,
    "value_b": 0.08,
    "diff": 0.09,
    "ratio": 2.125,
    "ci_diff": {"lower": 0.05, "upper": 0.13, "method": "wald_diff", "discarded": 0},
    "ci_ratio": {
        "lower": 1.49,
        "upper": 3.04,
        "method": "wald_log_ratio",
        "discarded": 0,
    },
    "status": "evaluated",
    "notes": [],
}

TE_ROW = {
    "criterion": "treatment_equality",
    "label": "Treatment Equality",
    "category": "other",
    "metric": "fn_fp_ratio",
    "condition": None,
    "group_a": "F",
    "group_b": "M",
    "value_a": 5.11,
    "value_b": 13.6,
    "diff": -8.49,
    "ratio": 0.3757352941176471,
    "ci_diff": None,
    "ci_ratio": None,
    "status": "evaluated",
    "notes": [],
}

FNR_ROW = {
    "criterion": "equalized_odds",
    "label": "Equalized Odds",
    "category": "separation",
    "metric": "fnr",
    "condition": None,
    "group_a": "F",
    "group_b": "M",
    "value_a": 0.5,
    "value_b": "UNDEFINED",
    "diff": "UNDEFINED",
    "ratio": "UNDEFINED",
    "ci_diff": None,
    "ci_ratio": None,
    "status": "evaluated",
    "notes": ["fnr undefined for group 'M'"],
}

CONDITIONAL_ROW = {
    "criterion": "conditional_statistical_parity",
    "label": "Conditional Statistical Parity",
    "category": "independence",
    "metric": "positive_rate",
    "condition": "senior",
    "group_a": "F",
    "group_b": "M",
    "value_a": 0.3,
    "value_b": 0.2,
    "diff": 0.1,
    "ratio": 1.5,
    "ci_diff": None,
    "ci_ratio": None,
    "status": "evaluated",
    "notes": [],
}


def handmade_document():
    return {
        "tool": {"name": "fairaudit", "version": "0.1.0"},
        "request": None,
        "dataset": {
            "n": 12,
            "n_dropped": 3,
            "threshold": 0.5,
            "groups": {"F": 8, "M": 4},
            "imputed_medians": {"age": 45.0},
            "dropped_covariates": {"sepsis": 1.0},
        },
        "fairness": [
            {
                "group_a": "F",
                "group_b": "M",
                "rows": [SP_ROW, TE_ROW, FNR_ROW, CONDITIONAL_ROW],
                "calibration": {
                    "bins": 2,
                    "edges": [0.0, 0.5, 1.0],
                    "curves": {},
                    "within_gap": {"F": 0.25, "M": 0.15},
                    "between_gap": 0.5,
                },
                "notes": ["calibration used 2 bins"],
            }
        ],
        "meta_metrics": [
            {
                "kind": "max_min_diff",
                "metric": "positive_rate",
                "exponent": None,
                "groups": ["F", "M"],
                "group_values": [0.375, 0.5],
                "value": 0.125,
            },
            {
                "kind": "max_min_ratio",
                "metric": "fpr",
                "note": "needs strictly positive group values",
                "groups": ["F", "M"],
                "group_values": [0.0, 0.5],
            },
        ],
        "diagnostics": {
            "prevalence": {"F": 0.19, "M": 0.14},
            "statistic": 4.536381781890764,
            "p_value": 0.03318165805399439,
            "level": 0.05,
            "reject_independence": True,
            "informative": True,
            "imperfect": True,
            "flagged": [
                "independence_sufficiency",
                "independence_separation",
                "separation_sufficiency",
            ],
            "notes": [
                "chi-square approximation is unreliable: the smallest expected cell "
                "count is 4.2, below 5"
            ],
        },
        "epsilon_assessments": [
            {
                "epsilon": 0.05,
                "group_a": "F",
                "group_b": "M",
                "verdicts": {
                    "statistical_parity": "FAIL",
                    "treatment_equality": "FAIL",
                    "equalized_odds": "UNDEFINED",
                    "conditional_statistical_parity[senior]": "FAIL",
                },
            }
        ],
    }


class TestMarkdown:
    def test_starts_with_title_and_dataset_bullets(self):
        md = emit_markdown(handmade_document())
        lines = md.splitlines()
        assert lines[0] == "# Fairness audit"
        assert "- records: 12 kept, 3 dropped" in lines
        assert "- groups: F (n=8), M (n=4)" in lines
        assert "- decision threshold: score > 0.5" in lines
        assert "- imputed medians: age=45" in lines
        assert "- dropped covariates: sepsis (100% missing)" in lines

    def test_dropped_rows_line_follows_the_records_line(self):
        doc = handmade_document()
        doc["dataset"]["dropped_by_reason"] = {"outcome": 2, "group": 0, "score_and_decision": 1}
        lines = emit_markdown(doc).splitlines()
        records = lines.index("- records: 12 kept, 3 dropped")
        assert lines[records + 1] == (
            "- dropped rows: 2 without an outcome, 1 without a score or decision"
        )

    def test_no_dropped_rows_line_without_drops(self):
        doc = handmade_document()
        doc["dataset"]["n_dropped"] = 0
        doc["dataset"]["dropped_by_reason"] = {"outcome": 0, "group": 0, "score_and_decision": 0}
        assert "- dropped rows" not in emit_markdown(doc)

    def test_percent_row_cells(self):
        md = emit_markdown(handmade_document())
        line = next(l for l in md.splitlines() if l.startswith("| Statistical Parity"))
        assert cells(line) == [
            "Statistical Parity",
            "independence",
            "17%",
            "8%",
            "9%",
            "[5%, 13%]",
            "2.12",
            "[1.49, 3.04]",
        ]

    def test_plain_row_cells(self):
        md = emit_markdown(handmade_document())
        line = next(l for l in md.splitlines() if l.startswith("| Treatment Equality"))
        assert cells(line) == [
            "Treatment Equality",
            "other",
            "5.11",
            "13.6",
            "-8.49",
            "-",
            "0.38",
            "-",
        ]

    def test_undefined_cells_render_as_dash(self):
        md = emit_markdown(handmade_document())
        line = next(l for l in md.splitlines() if l.startswith("| Equalized Odds"))
        assert cells(line) == [
            "Equalized Odds (fnr)",
            "separation",
            "50%",
            "-",
            "-",
            "-",
            "-",
            "-",
        ]

    def test_conditional_row_title(self):
        md = emit_markdown(handmade_document())
        assert any(
            l.startswith("| Conditional Statistical Parity (senior)")
            for l in md.splitlines()
        )

    def test_row_without_a_metric_renders_as_percent(self):
        doc = handmade_document()
        doc["fairness"][0]["rows"] = [{**SP_ROW, "metric": None}]
        jsonschema.validate(doc, load_report_schema())
        line = next(l for l in emit_markdown(doc).splitlines() if l.startswith("| Statistical"))
        assert cells(line)[2:] == ["17%", "8%", "9%", "[5%, 13%]", "2.12", "[1.49, 3.04]"]

    def test_row_of_an_unknown_criterion_is_titled_by_its_label(self):
        doc = handmade_document()
        doc["fairness"][0]["rows"] = [{**FNR_ROW, "criterion": "custom_check", "label": "Custom"}]
        jsonschema.validate(doc, load_report_schema())
        lines = emit_markdown(doc).splitlines()
        assert cells(next(l for l in lines if l.startswith("| Custom")))[0] == "Custom"
        assert "- Custom: fnr undefined for group 'M'" in lines

    def test_row_of_an_unknown_metric_reads_as_a_percentage(self):
        doc = handmade_document()
        row = {**FNR_ROW, "metric": "custom_metric", "value_b": 0.25, "diff": 0.25}
        doc["fairness"][0]["rows"] = [row]
        jsonschema.validate(doc, load_report_schema())
        line = next(l for l in emit_markdown(doc).splitlines() if l.startswith("| Equalized"))
        assert cells(line)[2:5] == ["50%", "25%", "25%"]

    def test_notes_are_listed(self):
        md = emit_markdown(handmade_document())
        assert "- Equalized Odds (fnr): fnr undefined for group 'M'" in md.splitlines()
        assert "- calibration used 2 bins" in md.splitlines()

    def test_calibration_section(self):
        lines = emit_markdown(handmade_document()).splitlines()
        assert "### Calibration" in lines
        assert "- largest within-bin gap for F: 0.25" in lines
        assert "- largest between-group gap on shared bins: 0.5" in lines

    def test_meta_table(self):
        lines = emit_markdown(handmade_document()).splitlines()
        assert "## Meta-metrics" in lines
        regular = next(l for l in lines if l.startswith("| positive_rate"))
        assert cells(regular) == [
            "positive_rate",
            "max_min_diff",
            "0.125",
            "F=0.375, M=0.5",
        ]
        noted = next(l for l in lines if l.startswith("| fpr"))
        assert cells(noted)[2] == "needs strictly positive group values"

    def test_diagnostics_section(self):
        lines = emit_markdown(handmade_document()).splitlines()
        assert "## Diagnostics" in lines
        assert "- outcome prevalence: F=19%, M=14%" in lines
        assert "- outcome/group chi-square: 4.53638 (p = 0.0331817)" in lines
        assert "- outcome rates differ across groups at the test level" in lines
        assert (
            "- criterion families that cannot both hold here: "
            "independence_sufficiency, independence_separation, separation_sufficiency"
            in lines
        )
        assert (
            "- chi-square approximation is unreliable: the smallest expected cell count "
            "is 4.2, below 5" in lines
        )

    def test_tolerance_section(self):
        lines = emit_markdown(handmade_document()).splitlines()
        assert "## Tolerance check: epsilon = 0.05 (F vs M)" in lines
        assert "| statistical_parity | FAIL |" in lines
        assert "| equalized_odds | UNDEFINED |" in lines
        assert "| conditional_statistical_parity[senior] | FAIL |" in lines

    def test_pipe_in_a_group_label_keeps_every_table_aligned(self):
        toy = toy_dataset()
        ds = dataclasses.replace(toy, group=np.where(toy.group == "F", "a|b", "c").astype(object))
        report = evaluate_all(ds, "a|b", "c")
        md = emit_markdown(
            build_document(
                dataset=ds,
                reports=[report],
                meta_results=[meta({"a|b": 3 / 8, "c": 2 / 4}, "max_min_diff")],
                diagnostics=incompatibility_verdict(ds),
                assessments=[epsilon_assessment(report, 0.05)],
            )
        )
        runs = groupby(md.splitlines(), lambda line: line.startswith("|"))
        tables = [list(table) for is_table, table in runs if is_table]
        assert len(tables) == 3  # the pair, the meta-metrics and the tolerance check
        for header, *rows in tables:
            pipes = len(re.findall(r"(?<!\\)\|", header))
            assert all(len(re.findall(r"(?<!\\)\|", row)) == pipes for row in rows), header
        assert tables[0][0].startswith(r"| Criterion | Category | a\|b | c |")
        assert r"a\|b=0.375" in md

    def test_header_only_table_when_no_rows(self):
        doc = {
            "tool": {"name": "fairaudit", "version": "0.1.0"},
            "fairness": [
                {"group_a": "a", "group_b": "b", "rows": [], "notes": []}
            ],
        }
        lines = emit_markdown(doc).splitlines()
        start = lines.index("## a vs b")
        assert lines[start + 2].startswith("| Criterion | Category |")
        assert lines[start + 3].startswith("| --- |")
        assert len(lines) == start + 4

    def test_ends_with_single_newline(self):
        md = emit_markdown(handmade_document())
        assert md.endswith("\n") and not md.endswith("\n\n")

    def test_diagnostics_error_entry(self):
        doc = {
            "tool": {"name": "fairaudit", "version": "0.1.0"},
            "diagnostics": {"error": "independence test needs both outcome values present"},
        }
        md = emit_markdown(doc)
        assert "- not available: independence test needs both outcome values present" in md


class TestMarkdownMatchesJson:
    def test_rendered_cells_reproduce_from_document(self, toy):
        # format the JSON row with local one-liners and require the
        # Markdown cells to agree with them
        report = evaluate_all(toy, "F", "M")
        doc = build_document(dataset=toy, reports=[report])
        md_lines = emit_markdown(doc).splitlines()

        def pct(value):
            if not isinstance(value, (int, float)):
                return "-"
            text = f"{value * 100:.0f}%"
            return "0%" if text == "-0%" else text

        def plain(value):
            if not isinstance(value, (int, float)):
                return "-"
            text = f"{value:.2f}".rstrip("0").rstrip(".")
            return "0" if text in ("-0", "") else text

        row = doc["fairness"][0]["rows"][0]
        assert row["criterion"] == "statistical_parity"
        line = next(l for l in md_lines if l.startswith("| Statistical Parity"))
        got = cells(line)
        assert got[2] == pct(row["value_a"])
        assert got[3] == pct(row["value_b"])
        assert got[4] == pct(row["diff"])
        assert got[6] == plain(row["ratio"])

        te = next(r for r in doc["fairness"][0]["rows"] if r["metric"] == "fn_fp_ratio")
        te_line = next(l for l in md_lines if l.startswith("| Treatment Equality"))
        te_cells = cells(te_line)
        assert te_cells[2] == plain(te["value_a"])
        assert te_cells[3] == plain(te["value_b"])
        assert te_cells[4] == plain(te["diff"])
