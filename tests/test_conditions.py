"""Condition expression parsing and evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from fairaudit import AuditDataset, ConditionPredicate, InputError
from fairaudit.conditions import Clause


def dataset():
    return AuditDataset(
        outcome=np.array([1, 0, 1, 0]),
        group=np.array(["a", "a", "b", "b"], dtype=object),
        score=np.array([0.9, 0.1, 0.8, 0.2]),
        covariates={
            "age": np.array([70.0, np.nan, 45.0, 60.0]),
            "ward": np.array(["icu", "med", None, "icu"], dtype=object),
        },
    )


class TestParse:
    def test_single_clause(self):
        pred = ConditionPredicate.parse("age >= 60")
        assert pred.clauses == (Clause("age", ">=", 60.0),)
        assert str(pred) == "age >= 60"

    def test_conjunction(self):
        pred = ConditionPredicate.parse("age >= 60 AND ward == 'icu'")
        assert len(pred.clauses) == 2
        assert pred.clauses[1] == Clause("ward", "==", "icu")

    def test_and_is_case_insensitive(self):
        pred = ConditionPredicate.parse("age > 1 and age < 99")
        assert len(pred.clauses) == 2

    def test_number_forms(self):
        pred = ConditionPredicate.parse("age > -1.5 AND age < 1e2")
        assert pred.clauses[0].value == -1.5
        assert pred.clauses[1].value == 100.0

    def test_double_quoted_string(self):
        pred = ConditionPredicate.parse('ward != "med"')
        assert pred.clauses[0].value == "med"

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "age",
            "age >=",
            ">= 60",
            "age >= 60 AND",
            "age >= 60 or age < 2",
            "age >= 60 age < 70",
            "AND age >= 60",
            "age >= sixty",
            "ward > ''",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(InputError):
            ConditionPredicate.parse(text)

    def test_ordering_needs_numeric_literal(self):
        with pytest.raises(InputError, match="numeric literal"):
            ConditionPredicate.parse("ward > 'icu'")

    def test_unparseable_characters(self):
        with pytest.raises(InputError, match="cannot parse"):
            ConditionPredicate.parse("age >= 60 && ward == 'icu'")


class TestMask:
    def test_numeric_mask_excludes_nan(self):
        mask = ConditionPredicate.parse("age >= 60").mask(dataset())
        assert list(mask) == [True, False, False, True]

    def test_numeric_boundary(self):
        # row 3 has age exactly 60
        at_least = ConditionPredicate.parse("age >= 60").mask(dataset())
        above = ConditionPredicate.parse("age > 60").mask(dataset())
        assert at_least[3] and not above[3]
        assert list(above) == [True, False, False, False]

    def test_not_equal_excludes_nan(self):
        mask = ConditionPredicate.parse("age != 70").mask(dataset())
        assert list(mask) == [False, False, True, True]

    def test_categorical_equality(self):
        mask = ConditionPredicate.parse("ward == 'icu'").mask(dataset())
        assert list(mask) == [True, False, False, True]

    def test_categorical_not_equal_excludes_missing(self):
        mask = ConditionPredicate.parse("ward != 'icu'").mask(dataset())
        assert list(mask) == [False, True, False, False]

    def test_conjunction(self):
        mask = ConditionPredicate.parse("age >= 60 AND ward == 'icu'").mask(dataset())
        assert list(mask) == [True, False, False, True]

    def test_ordering_on_categorical_column(self):
        with pytest.raises(InputError, match="not defined for categorical"):
            ConditionPredicate.parse("ward > 2").mask(dataset())

    def test_numeric_literal_on_categorical_column(self):
        with pytest.raises(InputError, match="categorical column"):
            ConditionPredicate.parse("ward == 2").mask(dataset())

    def test_string_literal_on_numeric_column(self):
        with pytest.raises(InputError, match="numeric column"):
            ConditionPredicate.parse("age == 'old'").mask(dataset())

    def test_unknown_covariate(self):
        with pytest.raises(InputError, match="unknown covariate"):
            ConditionPredicate.parse("weight > 10").mask(dataset())

    def test_empty_predicate_matches_everything(self):
        mask = ConditionPredicate(clauses=()).mask(dataset())
        assert mask.all()

    def test_numeric_equality_is_exact(self):
        mask = ConditionPredicate.parse("age == 45").mask(dataset())
        assert list(mask) == [False, False, True, False]
