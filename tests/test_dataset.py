"""Loading, validation, imputation, thresholding, filtering."""

from __future__ import annotations

import numpy as np
import pytest

from fairaudit import (
    AuditDataset,
    ConditionPredicate,
    InputError,
    apply_threshold,
    filter_condition,
    impute_medians,
    load_csv,
)


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

    def test_blank_extra_cells_load_and_short_rows_drop(self, tmp_path):
        text = "y,s,g\n1,0.9,a,,\n0,0.2,b, \n1,0.5\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        assert list(ds.group) == ["a", "b"]
        assert ds.n_dropped == 1


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

    def test_drop_when_too_missing(self, tmp_path):
        ds = self.make(tmp_path, ["10", "", "30", "", "", "40", "", "", "", "80"])
        out = impute_medians(ds, max_missing=0.10)
        assert "age" not in out.covariates
        assert out.dropped_covariates["age"] == pytest.approx(0.6)
        assert out.imputation_log == {}

    def test_identity_when_nothing_missing(self, tmp_path):
        ds = self.make(tmp_path, ["10", "20", "30", "40"])
        assert impute_medians(ds) is ds

    def test_rerun_is_identity(self, tmp_path):
        ds = self.make(tmp_path, ["10", "", "30", "20"])
        once = impute_medians(ds, max_missing=0.5)
        twice = impute_medians(once, max_missing=0.5)
        assert twice is once

    def test_named_column_must_exist(self, tmp_path):
        ds = self.make(tmp_path, ["10", "20"])
        with pytest.raises(InputError, match="unknown covariate"):
            impute_medians(ds, names=["weight"])

    def test_named_column_must_be_numeric(self, tmp_path):
        text = "y,s,g,ward\n1,0.5,a,icu\n0,0.4,b,med\n"
        ds = load_csv(write(tmp_path, text), outcome="y", score="s", group="g")
        with pytest.raises(InputError, match="not numeric"):
            impute_medians(ds, names=["ward"])

    def test_named_all_missing_column_rejected(self, tmp_path):
        outcome = np.array([1, 0, 1, 0])
        group = np.array(["a", "a", "b", "b"], dtype=object)
        score = np.array([0.5, 0.4, 0.3, 0.2])
        ds = AuditDataset(
            outcome=outcome,
            group=group,
            score=score,
            covariates={"age": np.full(4, np.nan)},
        )
        with pytest.raises(InputError, match="entirely missing"):
            impute_medians(ds, names=["age"])

    def test_max_missing_validated(self, tmp_path):
        ds = self.make(tmp_path, ["10", "20"])
        with pytest.raises(InputError, match="max_missing"):
            impute_medians(ds, max_missing=1.5)


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
        with pytest.raises(InputError, match="no score"):
            apply_threshold(ds, 0.5)

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
            n_dropped=3,
            imputation_log={"weight": 70.0},
            dropped_covariates={"ward": 0.5},
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

    def test_take_with_repeats(self, toy):
        out = toy.take(np.array([0, 0, 8, 9]))
        assert out.n == 4
        assert list(out.group) == ["F", "F", "M", "M"]
        assert out.outcome[0] == out.outcome[1] == 1

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
