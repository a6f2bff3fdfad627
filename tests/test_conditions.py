"""Condition expression parsing and evaluation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_trailing_whitespace(self):
        pred = ConditionPredicate.parse("age >= 60   ")
        assert pred.clauses == (Clause("age", ">=", 60.0),)
        assert str(pred) == "age >= 60"

    def test_str_without_source_joins_the_clauses(self):
        pred = ConditionPredicate(clauses=(Clause("age", ">=", 60.0), Clause("ward", "==", "icu")))
        assert str(pred) == "age >= 60.0 AND ward == 'icu'"

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
            "and >= 3",
            "age >= 60 ANDward == 'x'",
            "age > - 1",
            "x == 1.2.3",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(InputError):
            ConditionPredicate.parse(text)

    def test_ordering_needs_numeric_literal(self):
        with pytest.raises(InputError, match="numeric literal"):
            ConditionPredicate.parse("ward > 'icu'")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("age >=", "cannot parse condition 'age >=' near 'age >='"),
            ("age >= 60 AND", "cannot parse condition 'age >= 60 AND' near its end"),
            (
                "age >= 60 or age < 2 or age > 90",
                "cannot parse condition 'age >= 60 or age < 2 or age > 90'"
                " near 'or age < 2 or age > '",
            ),
        ],
    )
    def test_message_quotes_the_text_where_parsing_stopped(self, text, message):
        with pytest.raises(InputError) as raised:
            ConditionPredicate.parse(text)
        assert str(raised.value) == message

    def test_unparseable_characters(self):
        with pytest.raises(InputError, match="cannot parse"):
            ConditionPredicate.parse("age >= 60 && ward == 'icu'")


SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])
GAP = st.sampled_from([" ", "  ", "\t", "\n"])
AND = st.tuples(*(st.sampled_from([c, c.upper()]) for c in "and")).map("".join)
NUMBER = st.from_regex(
    r"-?([0-9]{1,3}(\.[0-9]{0,3})?|\.[0-9]{1,3})([eE][-+]?[0-9]{1,2})?", fullmatch=True
)
STRING_CHARS = "ab1 .-=<>!\t\"'ANDé"


@st.composite
def clauses(draw) -> tuple[str, Clause]:
    """One clause's text, spaced at random, and the Clause it parses to."""
    name = draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True))
    if name.upper() == "AND":
        name += "_"
    op = draw(st.sampled_from([">", ">=", "<", "<=", "==", "!="]))
    if op in ("==", "!=") and draw(st.booleans()):
        quote = draw(st.sampled_from(["'", '"']))
        value = draw(st.text(STRING_CHARS.replace(quote, ""), max_size=8))
        literal = quote + value + quote
    else:
        literal = draw(NUMBER)
        value = float(literal)
    text = draw(SPACE) + name + draw(SPACE) + op + draw(SPACE) + literal
    return text, Clause(name, op, value)


@settings(max_examples=300)
@given(
    st.lists(clauses(), min_size=1, max_size=3),
    st.lists(st.tuples(SPACE, AND, GAP), min_size=2, max_size=2),
    SPACE,
)
def test_parse_round_trips_generated_clauses(parts, joins, tail):
    text = parts[0][0]
    for (clause_text, _), (before, keyword, after) in zip(parts[1:], joins):
        text += before + keyword + after + clause_text
    text += tail
    pred = ConditionPredicate.parse(text)
    assert pred.clauses == tuple(clause for _, clause in parts)
    assert pred.source == text.strip()


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

    @pytest.mark.parametrize("op", ["==", "!="])
    def test_categorical_masks_match_a_per_row_reference(self, op):
        ward = np.array(["icu", None, "med", "icu", None, "surgery"] * 5, dtype=object)
        ds = AuditDataset(
            outcome=np.tile([1, 0], 15),
            group=np.array(["a", "b"] * 15, dtype=object),
            score=np.linspace(0.0, 1.0, 30),
            covariates={"ward": ward},
        )
        mask = ConditionPredicate.parse(f"ward {op} 'icu'").mask(ds)
        expect = [v is not None and (v == "icu") == (op == "==") for v in ward]
        assert mask.dtype == bool
        assert mask.tolist() == expect
