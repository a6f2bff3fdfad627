"""Loading, validation, imputation, thresholding, filtering."""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairaudit.dataset as dataset_module
from fairaudit import (
    AuditDataset,
    ConditionPredicate,
    GroupCodes,
    InputError,
    MetricId,
    apply_threshold,
    filter_condition,
    group_metric,
    impute_medians,
    load_csv,
)
from fairaudit.cli import main as cli_main


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """\
y,s,sex,age,ward,empty
1,0.9,F,60,icu,
0,0.2,F,55,med,
1,0.7,M,,icu,
0,0.1,M,70,med,
"""


class TestLoadCsv:
    def test_basic_shape(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), outcome="y", score="s", group="sex")
        assert ds.n == 4
        assert ds.groups == ("F", "M")
        assert ds.n_dropped == 0
        assert ds.threshold is None
        assert list(ds.outcome) == [1, 0, 1, 0]
        assert ds.score is not None and ds.score[0] == 0.9
        assert ds.decision is None

    def test_unbound_columns_become_covariates(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), outcome="y", score="s", group="sex")
        assert set(ds.covariates) == {"age", "ward"}
        assert ds.covariates["age"].dtype.kind == "f"
        assert np.isnan(ds.covariates["age"][2])
        assert ds.covariates["ward"].dtype == object
        assert ds.covariates["ward"][0] == "icu"

    def test_all_empty_covariate_dropped(self, tmp_path):
        ds = load_csv(write(tmp_path, BASIC), outcome="y", score="s", group="sex")
        assert "empty" not in ds.covariates
        assert ds.dropped_covariates == {"empty": 1.0}

    def test_explicit_covariate_list(self, tmp_path):
        ds = load_csv(
            write(tmp_path, BASIC),
            outcome="y",
            score="s",
            group="sex",
            covariates=["age"],
        )
        assert set(ds.covariates) == {"age"}

    def test_rows_missing_required_cells_dropped(self, tmp_path):
        text = "y,s,sex\n1,0.9,F\n,0.5,F\n1,0.5,\n0,,M\n0,0.3,M\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="sex")
        assert ds.n == 2
        assert ds.n_dropped == 3

    def test_decision_only_table(self, tmp_path):
        text = "y,d,g\n1,1,a\n0,0,b\n1,0,a\n"
        ds = load_csv(write(tmp_path, text), outcome="y", decision="d", group="g")
        assert ds.score is None
        assert list(ds.decision) == [1, 0, 0]

    def test_unknown_column(self, tmp_path):
        with pytest.raises(InputError, match="unknown column"):
            load_csv(write(tmp_path, BASIC), outcome="nope", score="s", group="sex")

    def test_duplicate_bound_column(self, tmp_path):
        text = "y,y,s,g\n1,1,0.5,a\n0,0,0.5,b\n"
        with pytest.raises(InputError, match="duplicate column"):
            load_csv(write(tmp_path, text), outcome="y", score="s", group="g")

    def test_repeated_unbound_column_is_left_out(self, tmp_path, capsys):
        text = "y,g,s,age,notes,notes\n1,a,0.5,55,x,y\n0,b,0.25,50,,z\n1,b,0.75,60,w,\n"
        path = write(tmp_path, text)
        ds = load_csv(path, outcome="y", score="s", group="g")
        assert list(ds.covariates) == ["age"]
        # a repeated name still refuses to bind, as a listed covariate too
        with pytest.raises(InputError, match="^duplicate column name: 'notes'$"):
            load_csv(path, outcome="y", score="s", group="g", covariates=["notes"])
        with pytest.raises(InputError, match="^duplicate column name: 'notes'$"):
            load_csv(path, outcome="notes", score="s", group="g")
        code = cli_main(
            [
                "audit", "--input", path, "--outcome", "y", "--group", "g", "--score", "s",
                "--threshold", "0.5", "--criteria", "statistical_parity", "--format", "json",
                "--condition", "n=notes == 'x'", "--condition", "old=age >= 50",
            ]
        )
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["fairness"][0]["rows"]
        conditional = {row["condition"]: row for row in rows if row["condition"]}
        assert conditional["n"]["status"] == "error"
        assert conditional["n"]["notes"] == ["unknown covariate in condition: 'notes'"]
        assert conditional["old"]["status"] == "evaluated"

    def test_outcome_outside_binary(self, tmp_path):
        text = "y,s,g\n2,0.5,a\n0,0.5,b\n"
        with pytest.raises(InputError, match="outside"):
            load_csv(write(tmp_path, text), outcome="y", score="s", group="g")

    def test_score_out_of_range(self, tmp_path):
        text = "y,s,g\n1,1.5,a\n0,0.5,b\n"
        with pytest.raises(InputError, match=r"outside \[0, 1\]"):
            load_csv(write(tmp_path, text), outcome="y", score="s", group="g")

    def test_score_not_numeric(self, tmp_path):
        text = "y,s,g\n1,high,a\n0,0.5,b\n"
        with pytest.raises(InputError, match="not numeric"):
            load_csv(write(tmp_path, text), outcome="y", score="s", group="g")

    def test_needs_score_or_decision_binding(self, tmp_path):
        with pytest.raises(InputError, match="score column, a decision column"):
            load_csv(write(tmp_path, BASIC), outcome="y", group="sex")

    def test_single_group_rejected(self, tmp_path):
        text = "y,s,g\n1,0.5,a\n0,0.4,a\n"
        with pytest.raises(InputError, match="fewer than 2"):
            load_csv(write(tmp_path, text), outcome="y", score="s", group="g")

    @pytest.mark.parametrize(
        "text, bindings, message",
        [
            (BASIC, {"score": "y"}, "column names must be distinct"),
            ("", {}, "is empty"),
            (BASIC, {"covariates": ["age", "y"]}, "column 'y' is already bound"),
        ],
    )
    def test_bindings_checked_against_the_header(self, tmp_path, text, bindings, message):
        kwargs = {"outcome": "y", "score": "s", "group": "sex", **bindings}
        with pytest.raises(InputError, match=message):
            load_csv(write(tmp_path, text), **kwargs)

    def test_missing_file(self):
        with pytest.raises(InputError, match="cannot read"):
            load_csv("/nonexistent/x.csv", outcome="y", score="s", group="g")

    def test_blank_lines_skipped(self, tmp_path):
        text = "y,s,g\n1,0.5,a\n\n0,0.4,b\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        assert ds.n == 2
        assert ds.n_dropped == 0

    def test_accepts_float_spelled_binaries(self, tmp_path):
        text = "y,s,g\n1.0,0.5,a\n0.0,0.4,b\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        assert list(ds.outcome) == [1, 0]

    def test_byte_order_mark_stripped_from_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,g,s,age\n1,a,0.5,40\n0,b,0.4,50\n")
        ds = load_csv(str(path), outcome="y", score="s", group="g")
        assert list(ds.outcome) == [1, 0]
        assert ds.groups == ("a", "b")
        assert set(ds.covariates) == {"age"}

    @pytest.mark.parametrize("where", ["header", "row"])
    def test_non_utf8_bytes_rejected(self, tmp_path, where):
        # Latin-1 e-acute; the row case sits past the decoder's first chunk
        header = b"y,s,g\xe9\n" if where == "header" else b"y,s,g\n"
        rows = b"1,0.5,a\n0,0.4,b\n" * 2000 + b"1,0.5,caf\xe9\n"
        path = tmp_path / "latin1.csv"
        path.write_bytes(header + rows)
        with pytest.raises(InputError, match="latin1.csv.*not UTF-8"):
            load_csv(str(path), outcome="y", score="s", group="g")

    def test_extra_non_blank_cells_rejected(self, tmp_path):
        text = "y,s,g\n1,0.9,a\n\n1,0.9,a,EXTRA,MORE\n0,0.2,b\n"
        with pytest.raises(InputError, match="line 4 of .* more cells than the header"):
            load_csv(write(tmp_path, text), outcome="y", score="s", group="g")

    @pytest.mark.parametrize(
        "text, line",
        [
            # the reader would fold every line after row 4 into its ward cell
            (
                "y,s,g,ward\n1,0.9,a,icu\n0,0.2,b,med\n1,0.8,a,med\n"
                '0,0.3,b,"icu\n1,0.6,a,icu\n0,0.1,b,med\n1,0.7,b,icu\n',
                5,
            ),
            ('y,"s,g,ward\n1,0.9,a,icu\n0,0.2,b,med\n', 1),
            ('y,s,g,ward\n1,0.9,a,icu\n0,0.2,b,"med\n', 3),
            ('y,s,g,ward\n1,0.9,a,"icu\nnorth"\n0,0.2,b,med\n', 2),
        ],
        ids=["unclosed", "unclosed-header", "unclosed-at-end", "closed"],
    )
    def test_line_break_in_cell_rejected(self, tmp_path, text, line):
        with pytest.raises(InputError, match=f"line {line} of .* line break inside a cell"):
            load_csv(write(tmp_path, text), outcome="y", score="s", group="g")

    def test_quoted_cell_with_comma_loads(self, tmp_path):
        text = 'y,s,g,ward\n1,0.9,a,"icu, north"\n0,0.2,b,med\n'
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        assert ds.n == 2
        assert list(ds.covariates["ward"]) == ["icu, north", "med"]

    def test_non_numeric_cell_on_a_dropped_row_keeps_a_covariate_float(self, tmp_path):
        text = "y,s,g,age\n1,0.9,a,60\n,0.5,a,old\n0,0.2,b,55\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        assert ds.covariates["age"].dtype == np.float64
        assert ds.covariates["age"].tolist() == [60.0, 55.0]

    def test_cell_on_a_dropped_row_keeps_no_covariate(self, tmp_path):
        text = "y,s,g,note\n1,0.9,a,\n,0.5,a,seen\n0,0.2,b,\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        assert "note" not in ds.covariates
        assert ds.dropped_covariates == {"note": 1.0}

    def test_blank_extra_cells_load_and_short_rows_drop(self, tmp_path):
        text = "y,s,g\n1,0.9,a,,\n0,0.2,b, \n1,0.5\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        assert list(ds.group) == ["a", "b"]
        assert ds.n_dropped == 1

    @pytest.mark.parametrize(
        "lead, skipped", [("\n", 1), ("\r\n\r\n", 2), (" ,\t,\n\n", 2), (",,\r", 1)]
    )
    def test_blank_lines_before_the_header_are_skipped_and_counted(
        self, tmp_path, lead, skipped
    ):
        bindings = {"outcome": "y", "score": "s", "group": "g"}
        text = "y,s,g\n1,0.5,a\n0,0.4,b\n"
        got = load_csv(write(tmp_path, lead + text, name="lead.csv"), **bindings)
        assert_same_load(got, load_csv(write(tmp_path, text), **bindings))
        path = write(tmp_path, lead + text + "1,x,a\n", name="bad.csv")
        assert loaded(load_csv, path, **bindings) == (
            f"line {skipped + 4} of {path!r}: s value is not numeric: 'x'"
        )
        path = write(tmp_path, lead + 'y,"s,g\n1,0.5,a\n', name="open.csv")
        assert loaded(load_csv, path, **bindings) == (
            f"line {skipped + 1} of {path!r} has a line break inside a cell; is a quote left open?"
        )

    @pytest.mark.parametrize("text", ["", "\n", "\r\n \n", " , ,\n,,\r\n\t"])
    def test_file_of_blank_lines_is_empty(self, tmp_path, text):
        path = write(tmp_path, text, name="x.csv")
        assert loaded(load_csv, path, outcome="y", score="s", group="g") == f"{path!r} is empty"


class TestImputeMedians:
    def make(self, tmp_path, age_cells):
        lines = ["y,s,g,age"]
        for i, cell in enumerate(age_cells):
            lines.append(f"{i % 2},0.5,{'a' if i % 2 else 'b'},{cell}")
        return load_csv(
            write(tmp_path, "\n".join(lines) + "\n"), outcome="y", score="s", group="g"
        )

    def test_median_filled(self, tmp_path):
        ds = self.make(tmp_path, ["10", "", "30", "20", "", "40", "50", "60", "70", "80", "90", "15"])
        out = impute_medians(ds, max_missing=0.5)
        # present cells sorted: 10 15 20 30 40 | 50 60 70 80 90
        assert out.imputation_log == {"age": 45.0}
        assert not np.isnan(out.covariates["age"]).any()
        # non-missing cells untouched
        assert out.covariates["age"][0] == 10.0

    @pytest.mark.parametrize("size", [1, 2, 3, 10, 11])
    def test_median_is_numpys_bit_for_bit(self, size):
        # np.median imports numpy.ma, so the imputed median is taken without it;
        # repeated values and zeros of either sign test the middle pair's mean
        rng = np.random.Generator(np.random.PCG64(size))
        for _ in range(200):
            values = rng.choice([-0.0, 0.0, 1.5, -2.25, 1e300, rng.normal()], size)
            ds = AuditDataset(
                outcome=np.zeros(size + 1, dtype=int),
                group=np.resize(np.array(["a", "b"], dtype=object), size + 1),
                score=np.full(size + 1, 0.5),
                covariates={"x": np.append(values, np.nan)},
            )
            median = impute_medians(ds, max_missing=1.0).imputation_log["x"]
            assert np.float64(median).tobytes() == np.float64(np.median(values)).tobytes()

    def test_drop_when_too_missing(self, tmp_path):
        ds = self.make(tmp_path, ["10", "", "30", "", "", "40", "", "", "", "80"])
        out = impute_medians(ds, max_missing=0.10)
        assert "age" not in out.covariates
        assert out.dropped_covariates["age"] == pytest.approx(0.6)
        assert out.imputation_log == {}

    def test_dropped_covariate_is_named_with_its_missing_fraction(self, tmp_path):
        # age is blank in every 4th row, sepsis in every row
        lines = ["y,g,s,age,sepsis"]
        for i in range(40):
            lines.append(f"{i % 2},{'ab'[i % 3 % 2]},0.5,{'' if i % 4 == 3 else 30 + i},")
        path = write(tmp_path, "\n".join(lines) + "\n")
        ds = impute_medians(load_csv(path, outcome="y", score="s", group="g"))
        assert ds.dropped_covariates == {"sepsis": 1.0, "age": 0.25}
        for name, fraction in [("age", "25%"), ("sepsis", "100%")]:
            message = f"covariate '{name}' was dropped: {fraction} of its cells are missing"
            with pytest.raises(InputError, match=message):
                ConditionPredicate.parse(f"{name} > 40").mask(ds)

    def test_identity_when_nothing_missing(self, tmp_path):
        ds = self.make(tmp_path, ["10", "20", "30", "40"])
        assert impute_medians(ds) is ds

    def test_rerun_is_identity(self, tmp_path):
        ds = self.make(tmp_path, ["10", "", "30", "20"])
        once = impute_medians(ds, max_missing=0.5)
        twice = impute_medians(once, max_missing=0.5)
        assert twice is once

    def test_max_missing_validated(self, tmp_path):
        ds = self.make(tmp_path, ["10", "20"])
        with pytest.raises(InputError, match="max_missing"):
            impute_medians(ds, max_missing=1.5)

    def test_max_missing_takes_both_ends_of_its_range(self, tmp_path):
        ds = self.make(tmp_path, ["10", "", "30", ""])
        for max_missing in (0.5, 1.0):  # half the cells are missing; at the limit they are filled
            assert impute_medians(ds, max_missing=max_missing).imputation_log == {"age": 20.0}
        assert "age" not in impute_medians(ds, max_missing=0.0).covariates


class TestApplyThreshold:
    def test_strictly_greater(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 0]),
            group=np.array(["a", "a", "b", "b"], dtype=object),
            score=np.array([0.41, 0.42, 0.40, 0.9]),
        )
        out = apply_threshold(ds, 0.41)
        # a score equal to the cutoff is a negative decision
        assert list(out.decision) == [0, 1, 0, 1]
        assert out.threshold == 0.41

    def test_cutoffs_at_both_ends_of_the_range(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.0, 1.0]),
        )
        assert list(apply_threshold(ds, 0.0).decision) == [0, 1]
        assert list(apply_threshold(ds, 1.0).decision) == [0, 0]

    def test_idempotent(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.3, 0.7]),
        )
        once = apply_threshold(ds, 0.5)
        twice = apply_threshold(once, 0.5)
        assert np.array_equal(once.decision, twice.decision)

    def test_replaces_existing_decisions(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.3, 0.7]),
            decision=np.array([1, 1]),
        )
        out = apply_threshold(ds, 0.5)
        assert list(out.decision) == [0, 1]

    def test_needs_scores(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            decision=np.array([1, 0]),
        )
        with pytest.raises(InputError) as caught:
            apply_threshold(ds, 0.5)
        assert str(caught.value) == "cannot apply a threshold: risk scores not loaded"

    def test_needs_every_score(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.9, np.nan]),
            decision=np.array([1, 0]),
        )
        with pytest.raises(InputError) as caught:
            apply_threshold(ds, 0.5)
        assert str(caught.value) == "cannot apply a threshold: risk scores missing for some records"

    def test_cutoff_range(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([0.3, 0.7]),
        )
        with pytest.raises(InputError, match="threshold"):
            apply_threshold(ds, 1.2)


class TestFilterCondition:
    def make(self):
        return AuditDataset(
            outcome=np.array([1, 0, 1, 0, 1, 0]),
            group=np.array(["a", "a", "a", "b", "b", "b"], dtype=object),
            score=np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3]),
            covariates={"age": np.array([70.0, 50.0, 65.0, 80.0, 40.0, 61.0])},
        )

    def test_keeps_matching_rows(self):
        out = filter_condition(self.make(), "age >= 60")
        assert out.n == 4
        assert list(out.covariates["age"]) == [70.0, 65.0, 80.0, 61.0]

    def test_all_true_predicate_is_identity(self):
        ds = self.make()
        out = filter_condition(ds, ConditionPredicate(clauses=()))
        assert out.n == ds.n
        assert np.array_equal(out.outcome, ds.outcome)
        assert np.array_equal(out.score, ds.score)

    def test_empty_result_rejected(self):
        with pytest.raises(InputError, match="matches no records"):
            filter_condition(self.make(), "age >= 200")

    def test_emptying_a_group_rejected(self):
        with pytest.raises(InputError, match="leaves group 'b' empty"):
            filter_condition(self.make(), "age >= 62 AND age <= 71")

    def test_string_predicate_parsed(self):
        out = filter_condition(self.make(), "age < 60")
        assert out.n == 2

    def test_stratum_is_built_once_per_dataset(self):
        ds = self.make()
        first = filter_condition(ds, "age >= 60")
        assert filter_condition(ds, ConditionPredicate.parse("age >= 60")) is first
        assert filter_condition(ds, "age>=60") is first
        assert filter_condition(self.make(), "age >= 60") is not first

    def test_errors_recur_on_every_call(self):
        ds = self.make()
        for _ in range(3):
            with pytest.raises(InputError, match="leaves group 'b' empty"):
                filter_condition(ds, "age >= 62 AND age <= 71")


class TestAuditDataset:
    def test_arrays_are_read_only(self, toy):
        with pytest.raises(ValueError):
            toy.outcome[0] = 0
        with pytest.raises(ValueError):
            toy.score[0] = 0.5

    def test_group_accessors(self, toy):
        assert toy.groups == ("F", "M")
        assert toy.group_sizes() == {"F": 8, "M": 4}
        assert list(toy.group_positions("M")) == [8, 9, 10, 11]
        with pytest.raises(InputError, match="unknown group"):
            toy.group_positions("X")

    def test_len_is_the_record_count(self, toy):
        assert len(toy) == toy.n == 12

    def test_every_record_needs_score_or_decision(self):
        with pytest.raises(InputError, match="score or a decision"):
            AuditDataset(
                outcome=np.array([1, 0]),
                group=np.array(["a", "b"], dtype=object),
                score=np.array([np.nan, 0.5]),
            )

    def test_partial_columns_allowed_when_covered(self):
        ds = AuditDataset(
            outcome=np.array([1, 0]),
            group=np.array(["a", "b"], dtype=object),
            score=np.array([np.nan, 0.5]),
            decision=np.array([1, -1]),
        )
        assert not ds.has_scores
        assert not ds.has_decisions

    def test_group_positions_follow_record_order(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 0, 1]),
            group=np.array(["b", "a", "b", "a", "b"], dtype=object),
            score=np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
        )
        assert ds.groups == ("a", "b")
        assert list(ds.group_positions("a")) == [1, 3]
        assert list(ds.group_positions("b")) == [0, 2, 4]
        assert ds.group_sizes() == {"a": 2, "b": 3}
        with pytest.raises(ValueError):
            ds.group_positions("b")[0] = 1

    def test_derived_datasets_keep_provenance(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 0]),
            group=np.array(["a", "a", "b", "b"], dtype=object),
            score=np.array([0.9, 0.2, 0.6, 0.4]),
            covariates={"age": np.array([40.0, np.nan, 50.0, 60.0])},
            threshold=0.5,
            imputation_log={"weight": 70.0},
            dropped_covariates={"ward": 0.5},
            dropped_by_reason={"outcome": 2, "score_and_decision": 1},
        )
        imputed = impute_medians(ds, max_missing=0.5)
        assert imputed.imputation_log == {"weight": 70.0, "age": 50.0}
        thresholded = apply_threshold(ds, 0.5)
        assert thresholded.threshold == 0.5
        for out in (ds.take(np.array([3, 0, 2])), imputed, thresholded):
            assert out.threshold == 0.5
            assert out.n_dropped == 3
            assert out.dropped_covariates == {"ward": 0.5}
        for out in (ds.take(np.array([3, 0, 2])), thresholded):
            assert out.imputation_log == {"weight": 70.0}

    def test_n_dropped_is_the_sum_of_the_reasons(self, toy):
        assert "n_dropped" not in {f.name for f in dataclasses.fields(AuditDataset)}
        assert toy.n_dropped == 0
        reasons = {"outcome": 2, "group": 0, "score_and_decision": 5}
        assert dataclasses.replace(toy, dropped_by_reason=reasons).n_dropped == 7

    def test_drop_reasons_are_the_loaders(self, toy):
        with pytest.raises(InputError) as caught:
            dataclasses.replace(toy, dropped_by_reason={"outcome": 1, "typo": 1})
        assert str(caught.value) == "drop reasons must be among outcome, group, score_and_decision"

    @pytest.mark.parametrize("count", [-1, np.int64(1), 1.0, True, "1"])
    def test_drop_counts_are_non_negative_ints(self, toy, count):
        with pytest.raises(InputError) as caught:
            dataclasses.replace(toy, dropped_by_reason={"outcome": 0, "group": count})
        assert str(caught.value) == "drop counts must be non-negative integers"

    def test_equality_and_hash_are_by_identity(self, toy):
        assert toy == toy
        assert toy != toy.take(np.arange(toy.n))
        assert {toy: 1}[toy] == 1

    def test_take_with_repeats(self, toy):
        out = toy.take(np.array([0, 0, 8, 9]))
        assert out.n == 4
        assert list(out.group) == ["F", "F", "M", "M"]
        assert out.outcome[0] == out.outcome[1] == 1

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"outcome": np.array([], dtype=int)}, "outcome column must be a non-empty 1-d array"),
            ({"outcome": np.array([2, 0])}, "outcome values outside"),
            ({"score": np.array([1.5, 0.5])}, "score values outside"),
            ({"decision": np.array([2, 0])}, "decision values outside"),
            ({"score": np.array([0.5])}, "score column length does not match outcome"),
            ({"decision": np.array([1])}, "decision column length does not match outcome"),
            ({"covariates": {"age": np.array([1.0])}}, "covariate 'age' length does not match"),
            ({"group": np.array(["a", "b", "a"], dtype=object)}, "group column length does not"),
            ({"outcome": np.array(["1", "0"])}, "outcome values outside"),
            ({"outcome": np.array([2, 0], dtype=object)}, "outcome values outside"),
            ({"decision": np.array(["1", "0"])}, "decision values outside"),
        ],
    )
    def test_bad_columns_rejected(self, columns, message):
        kwargs = {
            "outcome": np.array([1, 0]),
            "group": np.array(["a", "b"], dtype=object),
            "score": np.array([0.1, 0.5]),
            **columns,
        }
        with pytest.raises(InputError, match=message):
            AuditDataset(**kwargs)

    def test_object_array_of_binary_ints_accepted(self):
        ds = AuditDataset(
            outcome=np.array([1, 0], dtype=object),
            group=np.array(["a", "b"], dtype=object),
            decision=np.array([-1, 1], dtype=object),
            score=np.array([0.1, 0.5]),
        )
        assert ds.outcome.tolist() == [1, 0] and ds.outcome.dtype == np.int8
        assert ds.decision.tolist() == [-1, 1]

    @pytest.mark.parametrize(
        "labels",
        [["a", ""], ["a", None], ["a", 3], ["a", ["x"]], [1, 2]],
        ids=["empty", "none", "mixed-int", "list", "all-int"],
    )
    def test_group_labels_must_be_strings(self, labels):
        group = np.empty(2, dtype=object)
        group[:] = labels
        with pytest.raises(InputError, match="non-empty strings"):
            AuditDataset(
                outcome=np.array([1, 0]),
                group=group,
                score=np.array([0.1, 0.5]),
            )


class TestEncodedGroup:
    LABELS = ["b", "a", "c", "a", "b", "b", "c", "a"]

    def from_group(self, group, n=8):
        rng = np.random.default_rng(0)
        return AuditDataset(
            outcome=np.arange(n) % 2,
            group=group,
            score=rng.random(n),
            decision=(np.arange(n) // 2) % 2,
        )

    def test_codes_build_the_same_dataset_as_labels(self):
        by_labels = self.from_group(np.array(self.LABELS, dtype=object))
        codes = np.array(["abc".index(label) for label in self.LABELS])
        by_codes = self.from_group(GroupCodes(("a", "b", "c"), codes))
        for ds in (by_labels, by_codes):
            assert ds.groups == ("a", "b", "c")
            assert ds.group.dtype == object and not ds.group.flags.writeable
            assert ds.group.tolist() == self.LABELS
            assert ds.group_sizes() == {"a": 3, "b": 3, "c": 2}
        for label in by_labels.groups:
            assert np.array_equal(
                by_labels.group_positions(label), by_codes.group_positions(label)
            )
            for metric in MetricId:
                expected = group_metric(by_labels, label, metric)
                assert group_metric(by_codes, label, metric) == expected

    def test_codes_are_narrow(self):
        ds = self.from_group(GroupCodes(("a", "b", "c"), np.array([0, 1, 2, 0, 1, 2, 0, 1])))
        assert ds._group.codes.dtype == np.int16
        k = 2**15  # one more label than int16 codes can number
        labels = tuple(f"g{i:05d}" for i in range(k))
        many = self.from_group(GroupCodes(labels, np.arange(k)), n=k)
        assert many._group.codes.dtype == np.intp
        assert many.groups == labels

    def test_int16_codes_number_up_to_their_largest_value(self):
        k = 2**15 - 1  # codes 0 .. 32766 all fit in int16
        labels = tuple(f"g{i:05d}" for i in range(k))
        ds = self.from_group(GroupCodes(labels, np.arange(k)), n=k)
        assert ds._group.codes.dtype == np.int16

    @pytest.mark.parametrize(
        "labels,codes,message",
        [
            (("a", "b"), [0, 1, 2, 1, 0, 1, 0, 1], r"group codes must be integers in \[0, 2\)"),
            (("a", "b"), [0, 1, -1, 1, 0, 1, 0, 1], r"group codes must be integers in \[0, 2\)"),
            (("a", "b"), [0.0, 1.0] * 4, r"group codes must be integers in \[0, 2\)"),
            ((), [0] * 8, r"group codes must be integers in \[0, 0\)"),
            (("a", "b"), [0, 1] * 3, "group column length does not match outcome"),
            (("b", "a"), [0, 1] * 4, "group labels must be sorted and distinct"),
            (("a", "a"), [0, 1] * 4, "group labels must be sorted and distinct"),
            (("", "a"), [0, 1] * 4, "group labels must be non-empty strings"),
            (("a", 3), [0, 1] * 4, "group labels must be non-empty strings"),
            (("a", "b", "c"), [1] * 8, "fewer than 2 distinct groups"),
        ],
        ids=[
            "out-of-range",
            "negative",
            "float",
            "no-labels",
            "wrong-length",
            "unsorted",
            "duplicate",
            "empty-label",
            "non-string",
            "one-present",
        ],
    )
    def test_bad_codes_rejected(self, labels, codes, message):
        with pytest.raises(InputError, match=message):
            self.from_group(GroupCodes(labels, np.array(codes)))

    def test_replace_with_new_labels_reindexes(self):
        ds = self.from_group(np.array(self.LABELS, dtype=object))
        relabelled = dataclasses.replace(ds, group=np.array(["y"] * 5 + ["x"] * 3, dtype=object))
        assert relabelled.groups == ("x", "y")
        assert relabelled.group.tolist() == ["y"] * 5 + ["x"] * 3
        assert relabelled.group_positions("x").tolist() == [5, 6, 7]
        assert relabelled.take(np.array([7, 0])).group.tolist() == ["x", "y"]
        assert dataclasses.replace(ds, threshold=0.5).group.tolist() == self.LABELS

    def test_take_that_drops_a_group_renumbers(self):
        ds = self.from_group(np.array(self.LABELS, dtype=object))
        out = ds.take(np.array([2, 4, 6, 0]))  # c, b, c, b: no "a" left
        assert out.groups == ("b", "c")
        assert out._group.codes.tolist() == [1, 0, 1, 0]
        assert out.group.tolist() == ["c", "b", "c", "b"]
        assert out.group_positions("c").tolist() == [0, 2]
        with pytest.raises(InputError, match="unknown group"):
            out.group_positions("a")

    def test_audit_maps_labels_to_codes_only_in_the_loader(self, clinical_csv, monkeypatch):
        calls = {"_labels_to_codes": 0, "_block_codes": 0}
        for name in calls:
            original = getattr(dataset_module, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(dataset_module, name, counted)
        code = cli_main(
            [
                "audit", "--input", clinical_csv, "--outcome", "died", "--group", "sex",
                "--score", "risk", "--threshold", "0.5", "--condition", "senior=age >= 60",
                "--bootstrap", "20", "--meta", "--output", os.devnull,
            ]
        )
        assert code == 0
        # the clinical CSV fits in one block: one call for the group and one for
        # each of its 6 covariates; no derived dataset maps labels again
        assert calls == {"_labels_to_codes": 0, "_block_codes": 7}


def named_csv_errors(rows, path, first):
    """The rows of a csv reader from file line ``first`` on; a csv error names
    the line its row began on, as load_csv names it."""
    for line in itertools.count(first):
        try:
            yield next(rows)
        except StopIteration:
            return
        except csv.Error as exc:
            raise InputError(f"line {line} of {path!r}: {exc}") from None


def reference_load(path, *, outcome, group, score=None, decision=None):
    """The per-row loader the block-wise one replaced, kept as the oracle.

    One row at a time: skip blank rows, reject extra non-blank cells, parse
    each bound cell in the order outcome, score, decision, then drop or keep
    the row. Cell errors name the row's file line; drops count under the
    first missing cell among outcome, group, and score-and-decision.
    """

    def binary(cell, column):
        cell = cell.strip()
        if not cell:
            return None
        try:
            value = float(cell)
        except ValueError:
            raise InputError(f"{column} value outside {{0, 1}}: {cell!r}") from None
        if value not in (0.0, 1.0):
            raise InputError(f"{column} value outside {{0, 1}}: {cell!r}")
        return int(value)

    def probability(cell, column):
        cell = cell.strip()
        if not cell:
            return math.nan
        try:
            value = float(cell)
        except ValueError:
            raise InputError(f"{column} value is not numeric: {cell!r}") from None
        if not 0.0 <= value <= 1.0:
            raise InputError(f"{column} value outside [0, 1]: {cell!r}")
        return value

    def line_break(line):
        return InputError(
            f"line {line} of {path!r} has a line break inside a cell; is a quote left open?"
        )

    bound = [name for name in (outcome, group, score, decision) if name is not None]
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if reader.line_num != 1 or (header and header[-1].endswith(("\n", "\r"))):
            raise line_break(1)
        header = [name.strip() for name in header]
        covariate_names = [
            name for name in header if name and name not in bound and header.count(name) == 1
        ]
        position = {name: header.index(name) for name in bound + covariate_names}
        kept = {"outcome": [], "group": [], "score": [], "decision": []}
        raw = {name: [] for name in covariate_names}
        reasons = {"outcome": 0, "group": 0, "score_and_decision": 0}
        line = 1
        for row in named_csv_errors(reader, path, 2):
            line += 1
            if reader.line_num != line or (row and row[-1].endswith(("\n", "\r"))):
                raise line_break(line)
            if not any(cell.strip() for cell in row):
                continue
            if any(extra.strip() for extra in row[len(header) :]):
                raise InputError(f"line {line} of {path!r} has more cells than the header")

            def cell(name):
                index = position[name]
                return row[index] if index < len(row) else ""

            try:
                y = binary(cell(outcome), outcome)
                s = probability(cell(score), score) if score is not None else math.nan
                d = binary(cell(decision), decision) if decision is not None else None
            except InputError as exc:
                raise InputError(f"line {line} of {path!r}: {exc}") from None
            label = cell(group).strip()
            if y is None:
                reasons["outcome"] += 1
            elif not label:
                reasons["group"] += 1
            elif math.isnan(s) and d is None:
                reasons["score_and_decision"] += 1
            else:
                kept["outcome"].append(y)
                kept["group"].append(label)
                kept["score"].append(s)
                kept["decision"].append(-1 if d is None else d)
                for name in covariate_names:
                    raw[name].append(cell(name).strip())
    if not kept["outcome"]:
        raise InputError(f"no usable records in {path!r}")
    columns, dropped = {}, {}
    for name, cells in raw.items():
        if not any(cells):
            dropped[name] = 1.0
            continue
        try:
            columns[name] = np.array([float(c) if c else math.nan for c in cells])
        except ValueError:
            columns[name] = np.array([c if c else None for c in cells], dtype=object)
    return AuditDataset(
        outcome=np.array(kept["outcome"]),
        group=np.array(kept["group"], dtype=object),
        score=np.array(kept["score"]) if score is not None else None,
        decision=np.array(kept["decision"]) if decision is not None else None,
        covariates=columns,
        dropped_covariates=dropped,
        dropped_by_reason=reasons,
    )


def loaded(load, path, **bindings):
    """The dataset a loader returns, or the message of the InputError it raises."""
    try:
        return load(path, **bindings)
    except InputError as exc:
        return str(exc)


def assert_same_load(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert np.array_equal(got.outcome, want.outcome)
    assert got.group.tolist() == want.group.tolist()
    for name in ("score", "decision"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
    assert list(got.covariates) == list(want.covariates)
    for name, column in want.covariates.items():
        assert got.covariates[name].dtype == column.dtype
        if column.dtype == object:
            assert got.covariates[name].tolist() == column.tolist()
        else:
            assert np.array_equal(got.covariates[name], column, equal_nan=True)
    assert got.n_dropped == want.n_dropped
    assert dict(got.dropped_by_reason) == dict(want.dropped_by_reason)
    assert dict(got.dropped_covariates) == dict(want.dropped_covariates)


# Cell pools per column: valid cells with padding, float spellings and
# blanks; and cells the loader must reject, placed in a few files only.
CELLS = {
    "y": ["0", "1", "1", "0", " 1 ", "1.0", "0e0", ""],
    "s": ["0.1", "0.5", "0.95", " 0.25", "1", "0", "", " "],
    "g": ["a", "b", "a", "b", " a ", "c", "", '"b"'],
    "d": ["0", "1", "1.0", "", " "],
    "note": ["x", '"p, q"', "", " 7 ", "3.5", "y z", '"icu, north"', '"a""b"', "n\0l"],
}
BAD_CELLS = {
    "y": ["2", "yes"],
    "s": ["1.5", "nan", "hi", "-0.2"],
    "d": ["0.5", "no"],
    "note": ['"open'],
}
HEADER = tuple(CELLS)


@st.composite
def csv_files(draw):
    """A small CSV with blank, whitespace-only and ragged rows, quoted and NUL
    cells, lines ending in \\n, \\r\\n, \\r or a mix, and maybe a byte-order
    mark; some files also hold bad cells, non-blank extra cells or an
    unclosed quote; some repeat the unbound note column."""
    header = HEADER + draw(st.sampled_from([(), (), ("note",)]))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "long"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "spaces":
            lines.append(draw(st.sampled_from([" ", " , ,\t", ",,,,,", " ,  , , , , , "])))
            continue
        cells = [draw(st.sampled_from(CELLS[name])) for name in header]
        if kind == "short":
            cells = cells[: draw(st.integers(1, len(header) - 1))]
        elif kind == "long":
            cells += draw(st.lists(st.sampled_from(["", " "]), min_size=1, max_size=3))
        lines.append(",".join(cells))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if len(lines) > 1 else 0):
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",") if lines[i] else [""]
        j = draw(st.integers(0, len(header)))
        if j == len(header):
            cells += ["", "z"]  # a non-blank cell beyond the header
        else:
            cells += [""] * (j + 1 - len(cells))
            cells[j] = draw(st.sampled_from(BAD_CELLS.get(header[j], ["x"])))
        lines[i] = ",".join(cells)
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    if ending == "mixed":
        ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    else:
        ends = [ending] * len(lines)
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(map(str.__add__, lines, ends))


BINDINGS = [
    {"outcome": "y", "group": "g", "score": "s"},
    {"outcome": "y", "group": "g", "decision": "d"},
    {"outcome": "y", "group": "g", "score": "s", "decision": "d"},
]


class TestBlockLoaderMatchesRowLoader:
    @settings(max_examples=300)
    @given(text=csv_files(), bindings=st.sampled_from(BINDINGS))
    def test_every_block_size_matches_the_reference(self, text, bindings):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "data.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            want = loaded(reference_load, path, **bindings)
            for chars in (1, 2, 3, 5, 17, dataset_module._BLOCK_CHARS):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(dataset_module, "_BLOCK_CHARS", chars)
                    assert_same_load(loaded(load_csv, path, **bindings), want)

    def test_first_bad_row_wins_across_columns(self, tmp_path):
        text = "y,s,g\n1,0.5,a\n1,high,b\n" + "0,0.5,a\n" * 5 + "2,0.5,b\n"
        path = write(tmp_path, text)
        with pytest.raises(InputError) as caught:
            load_csv(path, outcome="y", score="s", group="g")
        assert str(caught.value) == f"line 3 of {path!r}: s value is not numeric: 'high'"

    @pytest.mark.parametrize("chars", [1, 2, 3, 4, 5, 17, dataset_module._BLOCK_CHARS])
    def test_error_in_a_later_block_names_its_own_line(self, tmp_path, monkeypatch, chars):
        monkeypatch.setattr(dataset_module, "_BLOCK_CHARS", chars)
        text = "y,s,g\n1,0.5,a\n0,0.4,b\n\n1,0.3,a\n0,0.2,b\n1,1.5,a\n"
        path = write(tmp_path, text)
        with pytest.raises(InputError) as caught:
            load_csv(path, outcome="y", score="s", group="g")
        assert str(caught.value) == f"line 7 of {path!r}: s value outside [0, 1]: '1.5'"

    def test_cell_errors_name_their_line(self, tmp_path):
        text = "y,s,g\n1,0.5,a\n\n0,0.4,b\n \n1,0.3,a\n2,0.2,b\n"
        path = write(tmp_path, text, name="x.csv")
        with pytest.raises(InputError) as caught:
            load_csv(path, outcome="y", score="s", group="g")
        assert str(caught.value) == f"line 7 of {path!r}: y value outside {{0, 1}}: '2'"

    @pytest.mark.parametrize("bad", [False, True])
    def test_line_endings_load_alike_at_every_block_size(self, tmp_path, bad):
        lines = [
            "y,s,g,note",
            "1,0.5,a,x",
            "",  # blank: skipped
            "0,0.25,b",  # ragged: short
            "1,0.75,a,y,,",  # ragged: blank cells past the header
            ",0.5,b,z",  # dropped: no outcome
            "0,0.125,b,w",
            "1,1.5,a,v" if bad else "1,1,a,v",  # line 8
            "0,0,b,u",
        ]
        want = None
        for name, end in [("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")]:
            text = end.join(lines) + end
            path = tmp_path / name / "data.csv"
            path.parent.mkdir()
            path.write_bytes(text.encode("utf-8"))
            body = text[len(lines[0] + end) :]  # what the blocks read, after the header
            sizes = range(1, len(body) + 1)
            if end == "\r\n":  # some block's read ends between a "\r" and its "\n"
                assert any(body[size - 1] == "\r" for size in sizes)
            for size in [*sizes, dataset_module._BLOCK_CHARS]:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(dataset_module, "_BLOCK_CHARS", size)
                    got = loaded(load_csv, str(path), outcome="y", score="s", group="g")
                if isinstance(got, str):
                    got = got.replace(repr(str(path)), "PATH")
                if want is None:
                    want = got
                assert_same_load(got, want)
        if bad:
            assert want == "line 8 of PATH: s value outside [0, 1]: '1.5'"
        else:
            assert want.n == 6 and dict(want.dropped_by_reason)["outcome"] == 1
            assert want.covariates["note"].tolist() == ["x", None, "y", "w", "v", "u"]


class TestTablesAcrossBlocks:
    """Each encoded column's cell table lives for the whole file: a cell first
    met in a later block is coded as if the file were one block."""

    @pytest.mark.parametrize("chars", [1, 17, dataset_module._BLOCK_CHARS])
    @pytest.mark.parametrize("cells", [("c", " c "), (" c ", "c")])
    def test_a_padded_label_shares_its_code_and_label(self, tmp_path, monkeypatch, chars, cells):
        monkeypatch.setattr(dataset_module, "_BLOCK_CHARS", chars)
        first, later = cells
        rows = [f"1,0.5,{first},{first}", "0,0.25,d,d"] * 3 + [f"1,0.75,{later},{later}"]
        path = write(tmp_path, "y,s,g,ward\n" + "\n".join(rows) + "\n")
        ds = load_csv(path, outcome="y", score="s", group="g")
        assert ds.groups == ("c", "d")
        assert ds._group.codes.tolist() == [0, 1] * 3 + [0]
        assert ds.covariates["ward"].tolist() == ["c", "d"] * 3 + ["c"]

    @pytest.mark.parametrize("chars", [1, 17])
    def test_an_outcome_first_met_late_is_rejected_on_its_own_line(
        self, tmp_path, monkeypatch, chars
    ):
        monkeypatch.setattr(dataset_module, "_BLOCK_CHARS", chars)
        path = write(tmp_path, "y,s,g\n" + "1,0.5,a\n0,0.25,b\n" * 20 + "2,0.5,a\n")
        with pytest.raises(InputError) as caught:
            load_csv(path, outcome="y", score="s", group="g")
        assert str(caught.value) == f"line 42 of {path!r}: y value outside {{0, 1}}: '2'"

    @pytest.mark.parametrize("chars", [1, 17])
    def test_one_categorical_cell_in_the_last_block_makes_the_covariate_categorical(
        self, tmp_path, monkeypatch, chars
    ):
        monkeypatch.setattr(dataset_module, "_BLOCK_CHARS", chars)
        rows = "1,0.5,a,40\n0,0.25,b,61.5\n" * 20 + "1,0.5,a,unknown\n"
        ds = load_csv(write(tmp_path, "y,s,g,age\n" + rows), outcome="y", score="s", group="g")
        assert ds.covariates["age"].dtype == object
        assert ds.covariates["age"].tolist() == ["40", "61.5"] * 20 + ["unknown"]


# Cells that float() reads in its own way, or that no bound column accepts.
ROW_CELLS = ["", " ", " 1", "1e0", "-0", "nan", "inf", "1_0", "abc", "2", "0.5", "0", "\t0.25 "]


def documented_rejection(y, s, d):
    """The message naming the first of a row's outcome, score and decision
    cells that does not load, or None when all three load."""
    for column, cell in (("y", y), ("s", s), ("d", d)):
        cell = cell.strip()
        if not cell:
            continue
        try:
            value = float(cell)
        except ValueError:
            value = None
        if column != "s":
            if value not in (0.0, 1.0):
                return f"{column} value outside {{0, 1}}: {cell!r}"
        elif value is None:
            return f"s value is not numeric: {cell!r}"
        elif not 0.0 <= value <= 1.0:
            return f"s value outside [0, 1]: {cell!r}"
    return None


class TestRejectedCells:
    @pytest.mark.parametrize("score", ["0.5", "", " "])
    def test_bad_decision_after_a_valid_or_blank_score(self, tmp_path, score):
        path = write(tmp_path, f"y,s,d,g\n1,0.5,1,a\n0,{score},yes,b\n")
        got = loaded(load_csv, path, outcome="y", score="s", decision="d", group="g")
        assert got == f"line 3 of {path!r}: d value outside {{0, 1}}: 'yes'"

    @settings(max_examples=300)
    @given(cells=st.tuples(*[st.sampled_from(ROW_CELLS)] * 3))
    def test_a_row_loads_as_float_reads_it_or_names_its_first_bad_cell(self, cells):
        y, s, d = cells
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "row.csv")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(f"y,s,d,g\n1,0.5,1,a\n0,0.25,0,b\n{y},{s},{d},a\n")
            got = loaded(load_csv, path, outcome="y", score="s", decision="d", group="g")
        message = documented_rejection(y, s, d)
        if message is not None:
            assert got == f"line 4 of {path!r}: {message}"
        elif not y.strip():
            assert got.n == 2 and dict(got.dropped_by_reason)["outcome"] == 1
        elif not (s.strip() or d.strip()):
            assert got.n == 2 and dict(got.dropped_by_reason)["score_and_decision"] == 1
        else:
            assert got.n == 3 and got.outcome[2] == float(y)
            assert repr(got.score[2].item()) == repr(float(s) if s.strip() else math.nan)
            assert got.decision[2] == (float(d) if d.strip() else -1)


# Score cells whose spelling float() reads in its own way, and each one's
# loaded score, or the message naming it; a blank or whitespace-only cell
# drops its row.
SCORE_SPELLINGS = {
    " 0.5 ": 0.5,
    "1_0": "s value outside [0, 1]: '1_0'",
    "١": 1.0,  # ARABIC-INDIC DIGIT ONE
    "nan": "s value outside [0, 1]: 'nan'",
    "inf": "s value outside [0, 1]: 'inf'",
    "1e400": "s value outside [0, 1]: '1e400'",
    "-0": -0.0,
    " \t ": None,
    "": None,
}


class TestScoreSpellings:
    @pytest.mark.parametrize("cell", list(SCORE_SPELLINGS))
    @pytest.mark.parametrize("with_blank", [False, True])
    def test_each_spelling_reads_as_float_reads_it(self, tmp_path, cell, with_blank):
        """A block with no blank score and one with a blank one read a cell alike."""
        rows = ["y,s,g", "1,0.5,a", f"0,{cell},b", "1,0.25,b"] + ["0,,a"] * with_blank
        path = write(tmp_path, "\n".join(rows) + "\n")
        got = loaded(load_csv, path, outcome="y", score="s", group="g")
        assert_same_load(got, loaded(reference_load, path, outcome="y", score="s", group="g"))
        want = SCORE_SPELLINGS[cell]
        if isinstance(want, str):
            assert got == f"line 3 of {path!r}: {want}"
        elif want is None:
            assert got.score.tolist() == [0.5, 0.25]
            assert dict(got.dropped_by_reason)["score_and_decision"] == 1 + with_blank
        else:
            assert list(map(repr, got.score.tolist())) == ["0.5", repr(want), "0.25"]


class TestCsvFallback:
    """Blocks holding a quote, a NUL or a line past the field limit are read by csv."""

    @pytest.mark.parametrize("chars", [1, 2, 3, 4, 5, 17, 4096, dataset_module._BLOCK_CHARS])
    def test_unquoted_cell_past_the_field_limit_names_its_line(
        self, tmp_path, monkeypatch, chars
    ):
        monkeypatch.setattr(dataset_module, "_BLOCK_CHARS", chars)
        cell = "x" * (csv.field_size_limit() + 1)
        text = f"y,s,g,note\n1,0.5,a,n\n0,0.4,b,n\n\n1,0.3,a,{cell}\n0,0.2,b,n\n"
        path = write(tmp_path, text)
        with pytest.raises(csv.Error) as raised:
            next(csv.reader([cell]))
        assert "field larger than field limit" in str(raised.value)
        want = f"line 5 of {path!r}: {raised.value}"
        assert loaded(load_csv, path, outcome="y", score="s", group="g") == want

    @pytest.mark.parametrize("length", [35, 41])
    def test_the_field_limit_applies_to_cells_not_lines(self, tmp_path, length):
        text = f"y,s,g,note\n1,0.5,a,{'x' * length}\n0,0.4,b,n\n"
        path = write(tmp_path, text)
        limit = csv.field_size_limit(40)
        try:
            got = loaded(load_csv, path, outcome="y", score="s", group="g")
            want = loaded(reference_load, path, outcome="y", score="s", group="g")
        finally:
            csv.field_size_limit(limit)
        assert_same_load(got, want)
        assert isinstance(got, str) == (length > 40)

    def test_nul_cell_reads_as_csv_reads_it(self, tmp_path):
        text = "y,s,g,note\n1,0.5,a,n\n0,0.4,b,x\0y\n1,0.3,a,n\n"
        path = write(tmp_path, text)
        got = loaded(load_csv, path, outcome="y", score="s", group="g")
        try:
            rows = list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:  # csv before Python 3.11 rejects NUL
            assert got == f"line 3 of {path!r}: {exc}"
        else:
            assert got.covariates["note"].tolist() == [row[3] for row in rows[1:]]


class TestDropReasons:
    def test_each_dropped_row_counts_under_its_first_missing_cell(self, tmp_path):
        text = (
            "y,s,d,g\n"
            "1,0.9,1,F\n"
            ",0.5,1,F\n"  # outcome
            ",,,\n"  # blank: skipped, not counted
            ",0.5,,\n"  # outcome and group: counts under outcome
            "1,0.5,0,\n"  # group
            "0,,,M\n"  # score and decision
            "0,,1,M\n"
            "1,0.2\n"  # short: group
        )
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", decision="d", group="g")
        assert ds.n == 2
        assert dict(ds.dropped_by_reason) == {"outcome": 2, "group": 2, "score_and_decision": 1}
        assert ds.n_dropped == 5

    def test_reasons_survive_derived_datasets(self, tmp_path):
        text = "y,s,g,age\n1,0.9,a,40\n0,0.2,b,\n1,0.6,a,50\n0,0.4,b,60\n,0.5,a,70\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        reasons = {"outcome": 1, "group": 0, "score_and_decision": 0}
        assert ds.dropped_by_reason == reasons
        derived = (
            impute_medians(ds, max_missing=0.5),
            apply_threshold(ds, 0.5),
            ds.take(np.array([3, 0])),
            filter_condition(ds, "age >= 40"),
        )
        for out in derived:
            assert out is not ds
            assert out.dropped_by_reason == reasons


def test_memory_holds_one_block_of_rows(tmp_path):
    """A wide unbound column costs about one block of text, not the file."""
    block = dataset_module._BLOCK_CHARS
    width = 1000
    # a 16-block file: its kept columns and per-block arrays stay far below
    # one block, so the peak is the block itself; a block of wide lines is
    # held three times as it is split (its text, the text with its line ends
    # made commas, the cells), and one more copy of it breaks the bound
    rows = 16 * block // width

    def peak(note):
        path = tmp_path / f"note{len(note)}.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("y,s,g,note\n")
            handle.write(f"1,0.5,a,{note}\n0,0.25,b,{note}\n" * (rows // 2))
        tracemalloc.start()
        try:
            load_csv(str(path), outcome="y", score="s", group="g", covariates=[])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("n")  # the first load in a process also allocates what later loads reuse
    assert peak("n" * width) - peak("n") < 3.5 * block


def test_many_small_blocks_peak_no_higher_than_one_block(tmp_path, monkeypatch):
    """A column's per-block arrays are joined as they pile up: a file read in
    thousands of tiny blocks holds a few arrays per column, not one per block."""
    path = tmp_path / "rows.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,s,g\n")
        handle.write("1,0.5,a\n0,0.25,b\n" * 4000)

    def peak(chars):
        monkeypatch.setattr(dataset_module, "_BLOCK_CHARS", chars)
        tracemalloc.start()
        try:
            load_csv(str(path), outcome="y", score="s", group="g")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # the first load in a process also allocates what later loads reuse
    assert peak(16) <= peak(path.stat().st_size)  # ~4,000 blocks against one


def test_kept_covariate_costs_codes_not_strings(tmp_path):
    """A kept covariate holds an integer code per row, not a string per row."""
    rows = 8 * 4096
    path = tmp_path / "ward.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,s,g,ward,age\n")
        handle.write("1,0.5,a,icu,61.5\n0,0.25,b,general,40\n" * (rows // 2))

    def peak(covariates):
        tracemalloc.start()
        try:
            load_csv(str(path), outcome="y", score="s", group="g", covariates=covariates)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a string per row costs ~80 bytes per row and covariate; the decoded
    # column and the dataset's own copy of it cost 16
    assert peak(["ward", "age"]) - peak([]) < 20 * rows * 2


def test_covariate_without_labels_keeps_no_codes(tmp_path):
    """A covariate dropped for holding no label frees its codes before the dataset is built."""
    rows = 8 * 4096
    path = tmp_path / "blank.csv"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,s,g,blank\n")
        handle.write("1,0.5,a,\n0,0.25,b,\n" * (rows // 2))

    def peak(covariates):
        tracemalloc.start()
        try:
            dataset = load_csv(str(path), outcome="y", score="s", group="g", covariates=covariates)
            return tracemalloc.get_traced_memory()[1], dataset.dropped_covariates
        finally:
            tracemalloc.stop()

    (with_blank, dropped), (without, _) = peak(["blank"]), peak([])
    assert dropped == {"blank": 1.0}
    # its codes, kept until the dataset is built, would add 8 bytes per row
    assert with_blank - without < 4 * rows
