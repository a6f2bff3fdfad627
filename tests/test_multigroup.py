"""Multi-group spread summaries."""

from __future__ import annotations

import math
import statistics

import pytest

from fairaudit import InputError, MetaMetricKind, MetricId, UNDEFINED, meta


class TestExactValues:
    def test_generalized_entropy_two_groups(self):
        result = meta([0.2, 0.4], "generalized_entropy")
        assert result.value == pytest.approx(1 / 18, abs=1e-12)
        assert result.exponent == 2.0

    def test_max_min_ratio_exact(self):
        assert meta([0.5, 1.0], "max_min_ratio").value == 2.0

    def test_max_min_diff_exact(self):
        assert meta([0.1, 0.25, 0.4], "max_min_diff").value == pytest.approx(
            0.3, rel=1e-12
        )

    def test_identical_values_collapse_exactly(self):
        values = [0.1, 0.1, 0.1]
        for kind in MetaMetricKind:
            if kind is MetaMetricKind.MAX_MIN_RATIO:
                assert meta(values, kind).value == 1.0
            else:
                assert meta(values, kind).value == 0.0


class TestOracles:
    VALUES = [0.12, 0.35, 0.27, 0.4, 0.18]

    def test_variance_matches_statistics_module(self):
        expected = statistics.variance(self.VALUES)
        assert meta(self.VALUES, "variance").value == pytest.approx(
            expected, rel=1e-12
        )

    def test_mean_abs_dev(self):
        mean = sum(self.VALUES) / len(self.VALUES)
        expected = sum(abs(v - mean) for v in self.VALUES) / len(self.VALUES)
        assert meta(self.VALUES, "mean_abs_dev").value == pytest.approx(
            expected, rel=1e-12
        )

    def test_max_abs_diff(self):
        mean = sum(self.VALUES) / len(self.VALUES)
        expected = max(abs(v - mean) for v in self.VALUES)
        assert meta(self.VALUES, "max_abs_diff").value == pytest.approx(
            expected, rel=1e-12
        )

    def test_generalized_entropy_brute_force(self):
        exponent = 3.0
        mean = sum(self.VALUES) / len(self.VALUES)
        k = len(self.VALUES)
        expected = sum((v / mean) ** exponent - 1.0 for v in self.VALUES) / (
            k * exponent * (exponent - 1.0)
        )
        result = meta(self.VALUES, "generalized_entropy", exponent=exponent)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.exponent == 3.0

    def test_max_min_ratio(self):
        assert meta(self.VALUES, "max_min_ratio").value == pytest.approx(
            0.4 / 0.12, rel=1e-12
        )


class TestInputs:
    def test_mapping_records_group_order(self):
        result = meta({"b": 0.2, "a": 0.4, "c": 0.3}, "max_min_diff")
        assert result.groups == ("b", "a", "c")
        assert result.group_values == (0.2, 0.4, 0.3)

    def test_sequence_has_no_groups(self):
        assert meta([0.2, 0.4], "max_min_diff").groups is None

    def test_metric_is_carried_through(self):
        result = meta([0.2, 0.4], "variance", metric=MetricId.POSITIVE_RATE)
        assert result.metric is MetricId.POSITIVE_RATE

    def test_kind_accepts_enum_or_string(self):
        by_enum = meta([0.2, 0.4], MetaMetricKind.VARIANCE)
        by_name = meta([0.2, 0.4], "variance")
        assert by_enum.value == by_name.value

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown meta-metric"):
            meta([0.2, 0.4], "spreadiness")


class TestValidation:
    def test_needs_two_values(self):
        with pytest.raises(InputError, match="at least 2"):
            meta([0.5], "variance")

    def test_rejects_undefined(self):
        with pytest.raises(InputError, match="defined"):
            meta([0.2, UNDEFINED], "variance")

    def test_rejects_nan(self):
        with pytest.raises(InputError, match="defined"):
            meta([0.2, math.nan], "variance")

    def test_rejects_none(self):
        with pytest.raises(InputError, match="defined"):
            meta([0.2, None], "variance")

    @pytest.mark.parametrize("kind", ["max_min_ratio", "generalized_entropy"])
    def test_positive_only_kinds(self, kind):
        with pytest.raises(InputError, match="strictly positive"):
            meta([0.0, 0.4], kind)
        with pytest.raises(InputError, match="strictly positive"):
            meta([-0.1, 0.4], kind)

    def test_entropy_exponent_degenerate_points(self):
        with pytest.raises(InputError, match="avoid 0 and 1"):
            meta([0.2, 0.4], "generalized_entropy", exponent=0.0)
        with pytest.raises(InputError, match="avoid 0 and 1"):
            meta([0.2, 0.4], "generalized_entropy", exponent=1.0)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf, -math.inf])
    def test_entropy_exponent_must_be_finite(self, exponent):
        with pytest.raises(InputError, match="finite"):
            meta([0.2, 0.4], "generalized_entropy", exponent=exponent)

    def test_exponent_rejected_elsewhere(self):
        with pytest.raises(InputError, match="takes no exponent"):
            meta([0.2, 0.4], "variance", exponent=2.0)
