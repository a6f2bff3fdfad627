"""Stratified bootstrap resampling and Wald interval construction."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import statistics
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import inference
from fairaudit import (
    AuditDataset,
    BootstrapConfig,
    ComputationError,
    InputError,
    Interval,
    IntervalMethod,
    MetricId,
    UNDEFINED,
    bootstrap_intervals,
    ci_diff,
    ci_ratio,
    evaluate_all,
    filter_condition,
    group_metric,
    incompatibility_verdict,
    independence_test,
    is_defined,
)
from fairaudit.inference import _group_replicates
from fairaudit.metrics import _cells

from conftest import toy_dataset
from reference import resample_within_groups

Z_975 = 1.959963984540054


def as_float(value) -> float:
    return float(value) if is_defined(value) else math.nan


def same(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


def random_dataset(sizes: dict[str, int], seed: int = 0) -> AuditDataset:
    """Groups of the given sizes with random outcomes, scores and decisions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = sum(sizes.values())
    return AuditDataset(
        outcome=rng.integers(0, 2, n),
        group=np.array([g for g, size in sizes.items() for _ in range(size)], dtype=object),
        score=rng.random(n),
        decision=rng.integers(0, 2, n),
    )


class TestBootstrapConfig:
    def test_defaults(self):
        config = BootstrapConfig()
        assert config.iterations == 1000
        assert config.alpha == 0.05
        assert config.seed == 0
        assert config.degenerate_tolerance == 0.01
        assert config.workers == 1

    def test_z_quantile(self):
        assert BootstrapConfig().z == pytest.approx(Z_975, rel=1e-15)
        assert BootstrapConfig(alpha=0.10).z == pytest.approx(
            1.6448536269514722, rel=1e-15
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 1},
            {"iterations": 0},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"alpha": -0.2},
            {"seed": -1},
            {"degenerate_tolerance": -0.1},
            {"degenerate_tolerance": 1.5},
            {"alpha": 1e-17},  # 1 - alpha/2 rounds to 1: no normal quantile
            {"workers": 0},
            {"iterations": 10**6 + 1},
            {"workers": 65},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InputError):
            BootstrapConfig(**kwargs)

    def test_alpha_and_tolerance_boundaries(self):
        # 1 - 2**-53 is the float just below 1, while 1 - 2**-54 rounds to 1
        assert math.isfinite(BootstrapConfig(alpha=2.0**-52).z)
        with pytest.raises(InputError, match="alpha too small"):
            BootstrapConfig(alpha=2.0**-53)
        for tolerance in (0.0, 1.0):
            assert BootstrapConfig(degenerate_tolerance=tolerance).degenerate_tolerance == tolerance

    def test_largest_iterations_and_workers_accepted(self):
        config = BootstrapConfig(iterations=10**6, workers=64)
        assert (config.iterations, config.workers) == (10**6, 64)


class TestInterval:
    def test_contains_is_inclusive(self):
        interval = Interval(0.1, 0.3, IntervalMethod.WALD_DIFF)
        assert interval.contains(0.1)
        assert interval.contains(0.3)
        assert not interval.contains(0.30000001)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ComputationError):
            Interval(0.5, 0.1, IntervalMethod.WALD_DIFF)

    def test_rejects_nan_bounds(self):
        with pytest.raises(ComputationError):
            Interval(math.nan, 1.0, IntervalMethod.WALD_DIFF)

    def test_rejects_negative_discard_count(self):
        with pytest.raises(InputError):
            Interval(0.0, 1.0, IntervalMethod.WALD_DIFF, discarded=-1)


class TestResampleWithinGroups:
    def test_deterministic(self, toy):
        first = resample_within_groups(toy, seed=4, iteration=2)
        second = resample_within_groups(toy, seed=4, iteration=2)
        assert np.array_equal(first.outcome, second.outcome)
        assert np.array_equal(first.decision, second.decision)
        assert np.array_equal(first.score, second.score)
        assert np.array_equal(first.group, second.group)

    def test_iteration_changes_the_draw(self, toy):
        first = resample_within_groups(toy, seed=4, iteration=0)
        second = resample_within_groups(toy, seed=4, iteration=1)
        assert not (
            np.array_equal(first.score, second.score)
            and np.array_equal(first.outcome, second.outcome)
        )

    def test_group_sizes_preserved(self, toy):
        resampled = resample_within_groups(toy, seed=1, iteration=5)
        assert resampled.group_sizes() == toy.group_sizes()

    def test_rows_stay_in_their_group(self, toy):
        resampled = resample_within_groups(toy, seed=3, iteration=7)
        for label in toy.groups:
            original = set(toy.score[toy.group_positions(label)])
            drawn = set(resampled.score[resampled.group_positions(label)])
            assert drawn <= original

    def test_single_record_group_resamples_to_itself(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1]),
            group=np.array(["a", "a", "b"], dtype=object),
            decision=np.array([1, 0, 1]),
        )
        for iteration in range(5):
            resampled = resample_within_groups(ds, seed=0, iteration=iteration)
            rows = resampled.group_positions("b")
            assert rows.shape == (1,)
            assert resampled.outcome[rows[0]] == 1

    def test_rejects_negative_seed_or_iteration(self, toy):
        with pytest.raises(InputError):
            resample_within_groups(toy, seed=-1)
        with pytest.raises(InputError):
            resample_within_groups(toy, iteration=-3)


class TestBootstrapReplicates:
    @staticmethod
    def assert_matches_resampler(ds, labels, metrics, config, iterations=None) -> dict:
        """Each group's replicates equal the reference resamples' metrics, bit for bit,
        at the given iterations (default: all of them)."""
        replicates = {label: _group_replicates(ds, label, metrics, config) for label in labels}
        for iteration in range(config.iterations) if iterations is None else iterations:
            resampled = resample_within_groups(ds, seed=config.seed, iteration=iteration)
            for label, values in replicates.items():
                for j, metric in enumerate(metrics):
                    expect = as_float(group_metric(resampled, label, metric))
                    assert same(values[iteration, j], expect)
        return replicates

    def test_matches_public_resampler_exactly(self, toy):
        config = BootstrapConfig(iterations=5, seed=9)
        self.assert_matches_resampler(toy, "FM", tuple(MetricId), config)

    def test_block_boundaries_match_public_resampler_exactly(self):
        # 50,000 records make two resamples per block: iterations 0-1 and
        # 2-3 fill a block each and iteration 4 ends in a partial block
        ds = random_dataset({"a": 50_000, "b": 30}, seed=11)
        assert inference._block_rows(50_000) == 2
        config = BootstrapConfig(iterations=5, seed=3)
        self.assert_matches_resampler(ds, "ab", tuple(MetricId), config)

    def test_rare_cell_matches_public_resampler_exactly(self):
        # one false positive among 40,000 records: a resample often draws
        # nothing from that cell
        n = 40_000
        outcome = np.zeros(n + 30, dtype=np.int8)
        outcome[1 : n // 2] = 1
        decision = outcome.copy()
        decision[0] = 1
        rng = np.random.Generator(np.random.PCG64(6))
        ds = AuditDataset(
            outcome=outcome,
            group=np.array(["a"] * n + ["b"] * 30, dtype=object),
            score=rng.random(n + 30),
            decision=decision,
        )
        metrics = tuple(MetricId)
        config = BootstrapConfig(iterations=6, seed=2)
        replicates = self.assert_matches_resampler(ds, "ab", metrics, config)
        assert (replicates["a"][:, metrics.index(MetricId.FPR)] == 0.0).any()

    def test_block_drawing_nothing_from_a_cell_matches_public_resampler(self):
        # one false positive among 70,000 records, drawn one resample per
        # block: a block often draws no position from that cell
        n = 70_000
        assert inference._block_rows(n) == 1
        decision = np.zeros(n + 30, dtype=np.int8)
        decision[0] = 1
        rng = np.random.Generator(np.random.PCG64(6))
        ds = AuditDataset(
            outcome=np.zeros(n + 30, dtype=np.int8),
            group=np.array(["a"] * n + ["b"] * 30, dtype=object),
            score=rng.random(n + 30),
            decision=decision,
        )
        metrics = (MetricId.FPR, MetricId.MEAN_SCORE_NEG, MetricId.BRIER_SCORE)
        config = BootstrapConfig(iterations=6, seed=2)
        replicates = self.assert_matches_resampler(ds, "a", metrics, config)
        assert (replicates["a"][:, 0] == 0.0).any()

    @staticmethod
    def threaded_dataset() -> AuditDataset:
        """Group a: 3,000 records in blocks of 43, one false positive and no false
        negative. Group b: 40 records."""
        n = 3_000
        rng = np.random.Generator(np.random.PCG64(13))
        outcome = rng.integers(0, 2, n + 40).astype(np.int8)
        decision = outcome.copy()
        decision[np.flatnonzero(outcome == 0)[0]] = 1
        return AuditDataset(
            outcome=outcome,
            group=np.array(["a"] * n + ["b"] * 40, dtype=object),
            score=rng.random(n + 40),
            decision=decision,
        )

    @pytest.mark.parametrize(
        "metrics",
        [tuple(MetricId), (MetricId.POSITIVE_RATE, MetricId.FPR)],
        ids=["all", "confusion"],
    )
    def test_worker_count_never_changes_replicates(self, metrics):
        # 400 iterations fill nine blocks of 43 and end in a partial tenth
        assert inference._block_rows(3_000) == 43
        builds = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads swap often, so a lost write would show
        try:
            for workers in range(1, 5):
                config = BootstrapConfig(iterations=400, seed=4, workers=workers)
                values = _group_replicates(self.threaded_dataset(), "a", metrics, config)
                builds.append(values.tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert builds[1:] == builds[:1] * 3
        # resamples that miss the one false positive have a false positive rate of 0
        assert (values[:, metrics.index(MetricId.FPR)] == 0.0).any()

    def test_threaded_shares_match_public_resampler_at_their_boundaries(self):
        # three workers draw blocks 0, 3, 6, 9 / 1, 4, 7 / 2, 5, 8: check the
        # first and last iteration of every block
        config = BootstrapConfig(iterations=400, seed=4, workers=3)
        edges = {i for start in range(0, 400, 43) for i in (start, min(start + 42, 399))}
        self.assert_matches_resampler(
            self.threaded_dataset(), "a", tuple(MetricId), config, sorted(edges)
        )

    @staticmethod
    def record_blocks(monkeypatch) -> list:
        """Record each block substream's cell-count and within-cell draws."""
        blocks = []
        substream = inference._substream

        class Recording:
            def __init__(self, generator):
                self.generator = generator
                self.size = self.rows = None
                self.within = []
                blocks.append(self)

            def multinomial(self, n, pvals, size):
                self.size, self.rows = n, size
                return self.generator.multinomial(n, pvals, size)

            def integers(self, low, high, size):
                self.within.append(size)
                return self.generator.integers(low, high, size)

        monkeypatch.setattr(
            inference, "_substream", lambda *key: Recording(substream(*key))
        )
        return blocks

    def test_index_draws_stay_under_the_block_cap(self, monkeypatch):
        blocks = self.record_blocks(monkeypatch)
        sizes = {"a": 40_000, "b": 12_000, "c": 500, "d": 1}
        ds = random_dataset(sizes, seed=4)
        config = BootstrapConfig(iterations=70, seed=1)
        for label in sizes:
            _group_replicates(ds, label, (MetricId.BRIER_SCORE,), config)
        resample_within_groups(ds, seed=1, iteration=69)
        assert {block.size for block in blocks} == set(sizes.values())
        # the cap keeps one block's drawn records small at 200k records
        for block in blocks:
            assert block.rows == inference._block_rows(block.size)
            cells = sum(block.within)
            assert cells == block.rows * block.size
            assert cells <= max(inference._BLOCK_CELLS, block.size)

    @given(st.integers(1, 10**7))
    def test_block_rows_bound_blocks_and_surplus_resamples(self, n):
        rows = inference._block_rows(n)
        assert rows >= max(1, 2**15 // n)  # never more blocks than 2**15-record blocks
        assert rows <= max(128, 2**15 // n)  # a block draws few resamples past B
        assert rows * n <= max(2**17, n)

    def test_first_replicates_do_not_depend_on_the_iteration_count(self):
        # 43 and 128 resamples per block: neither divides 200, so the
        # shorter build ends inside a block the longer one fills
        sizes = {"a": 3_000, "b": 400}
        assert [inference._block_rows(n) for n in sizes.values()] == [43, 128]
        metrics = (MetricId.POSITIVE_RATE, MetricId.FNR, MetricId.BRIER_SCORE)

        def replicates(iterations, label):
            config = BootstrapConfig(iterations=iterations, seed=5)
            return _group_replicates(random_dataset(sizes, seed=9), label, metrics, config)

        for label in sizes:
            short, long = replicates(200, label), replicates(1000, label)
            assert np.array_equal(short, long[:200], equal_nan=True)

    def test_random_stream_is_pinned(self):
        # 218 and 128 resamples per block, so 300 iterations span two and
        # three blocks; scores in eighths keep every sum exact in any order,
        # so the digests change only when the drawn resamples do
        sizes = {"a": 150, "b": 300}
        assert [inference._block_rows(n) for n in sizes.values()] == [218, 128]
        i = np.arange(sum(sizes.values()))
        ds = AuditDataset(
            outcome=(i * 7 % 5 < 2).astype(np.int8),
            group=np.array([g for g, n in sizes.items() for _ in range(n)], dtype=object),
            score=(i * 5 % 9) / 8.0,
            decision=(i * 3 % 4 == 0).astype(np.int8),
        )
        config = BootstrapConfig(iterations=300, seed=11)
        digests = {}
        for label in sizes:
            values = _group_replicates(ds, label, tuple(MetricId), config)
            assert not np.isnan(values).any()
            digests[label] = hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()
        assert digests == {
            "a": "be5a28d9a042212f247330c8cc2cfe26dfb5437ec07ccc2a6bf931cc1778bf67",
            "b": "2d2fc194f87f2aa56f0a331b7c7271bd1e69dee0f979cc501b1fd16fb0643b87",
        }

    def test_replicate_build_memory_stays_near_one_block(self):
        ds = random_dataset({"a": 8_000, "b": 30}, seed=3)
        metrics = (MetricId.MEAN_SCORE_POS, MetricId.BRIER_SCORE)  # terms s and (s-y)^2
        config = BootstrapConfig(iterations=200, seed=1)
        _cells(ds, "a")  # the group's cells are built before the replicates
        tracemalloc.start()
        try:
            inference._group_replicates(ds, "a", metrics, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # blocks of 16 resamples (2**17 records within cells), drawn a cell
        # at a time, peak near 0.7 MB; blocks of 2**18 records peak above 1.2 MB
        assert peak < 2**20

    def test_threaded_replicate_build_memory_stays_near_two_blocks(self):
        # a first threaded build imports concurrent.futures; import it before tracing
        import concurrent.futures  # noqa: F401

        ds = random_dataset({"a": 8_000, "b": 30}, seed=3)
        metrics = (MetricId.MEAN_SCORE_POS, MetricId.BRIER_SCORE)
        config = BootstrapConfig(iterations=200, seed=1, workers=2)
        _cells(ds, "a")
        tracemalloc.start()
        try:
            inference._group_replicates(ds, "a", metrics, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two blocks of 16 resamples in flight, one per thread
        assert peak < 2 * 2**20

    def test_confusion_only_request_draws_no_records(self, monkeypatch):
        blocks = self.record_blocks(monkeypatch)
        ds = random_dataset({"a": 3_000, "b": 40}, seed=2)
        config = BootstrapConfig(iterations=50, seed=1)
        for label in "ab":
            _group_replicates(ds, label, (MetricId.POSITIVE_RATE,), config)
        assert blocks and all(block.rows for block in blocks)
        assert all(block.within == [] for block in blocks)

    def test_score_metrics_leave_confusion_replicates_unchanged(self):
        sizes = {"a": 9_000, "b": 700}
        config = BootstrapConfig(iterations=40, seed=12)
        confusion = (MetricId.POSITIVE_RATE, MetricId.FNR)
        wider = confusion + (MetricId.BRIER_SCORE, MetricId.MEAN_SCORE_POS)
        for label in sizes:
            narrow = _group_replicates(random_dataset(sizes, seed=8), label, confusion, config)
            wide = _group_replicates(random_dataset(sizes, seed=8), label, wider, config)
            assert np.array_equal(narrow, wide[:, :2])

    def test_group_replicates_do_not_depend_on_the_pair(self):
        rng = np.random.Generator(np.random.PCG64(5))
        n = 90
        ds = AuditDataset(
            outcome=rng.integers(0, 2, n),
            group=np.array(["a", "b", "c"] * (n // 3), dtype=object),
            score=rng.random(n),
            decision=rng.integers(0, 2, n),
        )
        config = BootstrapConfig(iterations=30, seed=17)
        metrics = (MetricId.POSITIVE_RATE, MetricId.FNR, MetricId.BRIER_SCORE)

        def pair(other):
            """Both groups' replicates, on a dataset that holds only the pair."""
            alone = ds.take(np.flatnonzero((ds.group == "a") | (ds.group == other)))
            return [_group_replicates(alone, label, metrics, config) for label in ("a", other)]

        with_b, with_c = pair("b"), pair("c")
        assert np.array_equal(with_b[0], with_c[0], equal_nan=True)
        assert not np.array_equal(with_b[1], with_c[1], equal_nan=True)

    def test_adding_a_metric_keeps_existing_columns(self, toy):
        config = BootstrapConfig(iterations=20, seed=2)
        for label in "FM":
            narrow = _group_replicates(toy, label, (MetricId.POSITIVE_RATE,), config)
            wide = _group_replicates(
                toy, label, (MetricId.POSITIVE_RATE, MetricId.ACCURACY), config
            )
            assert np.array_equal(narrow[:, 0], wide[:, 0])

    def test_adding_a_decision_metric_keeps_score_columns(self):
        # a group's cells are cut by decision whenever it has them, so a
        # score-only request draws the same resamples as a mixed one
        config = BootstrapConfig(iterations=30, seed=4)
        sizes = {"a": 500, "b": 60}
        for label in sizes:
            narrow = _group_replicates(
                random_dataset(sizes, seed=3), label, (MetricId.BRIER_SCORE,), config
            )
            wide = _group_replicates(
                random_dataset(sizes, seed=3),
                label,
                (MetricId.BRIER_SCORE, MetricId.POSITIVE_RATE),
                config,
            )
            assert np.array_equal(narrow[:, 0], wide[:, 0])

    def test_duplicate_metrics_collapse(self, monkeypatch):
        requested = []
        group_replicates = inference._group_replicates
        monkeypatch.setattr(
            inference,
            "_group_replicates",
            lambda ds, label, metrics, config: requested.append(metrics)
            or group_replicates(ds, label, metrics, config),
        )
        ds = random_dataset({"a": 200, "b": 200}, seed=1)
        config = BootstrapConfig(iterations=5, seed=0)
        intervals = bootstrap_intervals(
            ds,
            (MetricId.POSITIVE_RATE, "accuracy", MetricId.POSITIVE_RATE),
            "a",
            "b",
            config,
        )
        assert list(intervals) == [MetricId.POSITIVE_RATE, MetricId.ACCURACY]
        assert requested == [(MetricId.POSITIVE_RATE, MetricId.ACCURACY)] * 2

    def test_input_validation(self, toy):
        config = BootstrapConfig(iterations=5)
        with pytest.raises(InputError, match="no metrics"):
            bootstrap_intervals(toy, (), "F", "M", config)
        with pytest.raises(InputError, match="distinct"):
            bootstrap_intervals(toy, (MetricId.POSITIVE_RATE,), "F", "F", config)
        with pytest.raises(InputError, match="distinct"):
            ci_diff(toy, MetricId.POSITIVE_RATE, "F", "F", config)

    def test_score_metric_without_scores(self, toy):
        ds = AuditDataset(outcome=toy.outcome, group=toy.group, decision=toy.decision)
        with pytest.raises(InputError, match="risk scores"):
            bootstrap_intervals(
                ds, (MetricId.BRIER_SCORE,), "F", "M", BootstrapConfig(iterations=5)
            )

    def test_partial_scores_rejected(self):
        score = np.array([0.2, np.nan, 0.7, 0.4])
        ds = AuditDataset(
            outcome=np.array([0, 1, 1, 0]),
            group=np.array(["a", "a", "b", "b"], dtype=object),
            score=score,
            decision=np.array([0, 1, 1, 0]),
        )
        with pytest.raises(InputError, match="records without scores"):
            bootstrap_intervals(
                ds, (MetricId.BRIER_SCORE,), "a", "b", BootstrapConfig(iterations=5)
            )

    def test_partial_decisions_rejected(self):
        ds = AuditDataset(
            outcome=np.array([0, 1, 1, 0]),
            group=np.array(["a", "a", "b", "b"], dtype=object),
            score=np.array([0.2, 0.9, 0.7, 0.4]),
            decision=np.array([0, -1, 1, 0]),
        )
        with pytest.raises(InputError, match="records without decisions"):
            bootstrap_intervals(
                ds, (MetricId.POSITIVE_RATE,), "a", "b", BootstrapConfig(iterations=5)
            )


class TestResampleDistribution:
    """Replicate sums against the exact moments of n uniform draws with replacement."""

    def test_replicate_sums_match_bootstrap_moments(self):
        rng = np.random.Generator(np.random.PCG64(31))
        full_y = rng.integers(0, 2, 40)
        gap_y = rng.integers(0, 2, 30)
        arrays = {  # group: (outcome, decision)
            "full": (full_y, rng.integers(0, 2, 40)),
            "gap": (gap_y, gap_y * rng.integers(0, 2, 30)),  # no false positives
            "one": (np.array([1]), np.array([0])),
        }
        full_cells = 2 * arrays["full"][0] + arrays["full"][1]
        assert set(full_cells.tolist()) == {0, 1, 2, 3}
        gap_cells = set((2 * arrays["gap"][0] + arrays["gap"][1]).tolist())
        assert gap_cells == {0, 2, 3}
        outcome = np.concatenate([y for y, _ in arrays.values()])
        ds = AuditDataset(
            outcome=outcome,
            group=np.array([g for g, (y, _) in arrays.items() for _ in y], dtype=object),
            score=rng.random(outcome.shape[0]),
            decision=np.concatenate([d for _, d in arrays.values()]),
        )
        metrics = (
            MetricId.PREVALENCE,
            MetricId.POSITIVE_RATE,
            MetricId.ACCURACY,
            MetricId.BRIER_SCORE,
            MetricId.MEAN_ABSOLUTE_ERROR,
        )
        B = 20_000
        config = BootstrapConfig(iterations=B, seed=5)
        for label in arrays:
            values = _group_replicates(ds, label, metrics, config)
            rows = ds.group_positions(label)
            n = rows.shape[0]
            y, d, s = ds.outcome[rows], ds.decision[rows], ds.score[rows]
            prevalence, positive_rate, accuracy, brier, mae = (values * n).T
            y_sum, d_sum, correct = (
                np.rint(v).astype(int) for v in (prevalence, positive_rate, accuracy)
            )
            tp = (correct - n + y_sum + d_sum) // 2
            terms_and_sums = {
                "y": (y, y_sum),
                "d": (d, d_sum),
                "tp": (y * d, tp),
                "fp": ((1 - y) * d, d_sum - tp),
                "squared error": ((s - y) ** 2, brier),
                "absolute error": (np.abs(s - y), mae),
            }
            for name, (term, sums) in terms_and_sums.items():
                mean, var = term.mean(), term.var()
                kurtosis = ((term - mean) ** 4).mean() - 3 * var**2
                se_mean = math.sqrt(n * var / B)
                se_var = math.sqrt((n * kurtosis + 2 * (n * var) ** 2) / B)
                where = f"{label} {name}"
                assert abs(sums.mean() - n * mean) <= 4 * se_mean + 1e-9 * n, where
                assert abs(sums.var(ddof=1) - n * var) <= 4 * se_var + 1e-9 * n, where


class TestReplicateMemo:
    def test_decision_only_call_leaves_score_columns_unchanged(self, toy):
        config = BootstrapConfig(iterations=40, seed=6)
        metrics = (MetricId.POSITIVE_RATE, MetricId.BRIER_SCORE, MetricId.MEAN_SCORE_NEG)
        fresh = toy_dataset()
        for label in "FM":
            _group_replicates(toy, label, (MetricId.POSITIVE_RATE,), config)
            after = _group_replicates(toy, label, metrics, config)
            expected = _group_replicates(fresh, label, metrics, config)
            assert np.array_equal(after, expected, equal_nan=True)

    def test_column_checks_run_on_every_call(self, toy):
        ds = AuditDataset(outcome=toy.outcome, group=toy.group, decision=toy.decision)
        config = BootstrapConfig(iterations=5)
        _group_replicates(ds, "F", (MetricId.POSITIVE_RATE,), config)
        for _ in range(2):
            with pytest.raises(InputError, match="risk scores"):
                _group_replicates(ds, "F", (MetricId.BRIER_SCORE,), config)

    def test_group_is_resampled_once_per_dataset(self, toy, monkeypatch):
        calls = []
        substream = inference._substream
        monkeypatch.setattr(
            inference, "_substream", lambda *key: calls.append(key) or substream(*key)
        )
        config = BootstrapConfig(iterations=5, seed=2)
        first = [_group_replicates(toy, label, (MetricId.ACCURACY,), config) for label in "FM"]
        drawn = len(calls)
        second = [_group_replicates(toy, label, (MetricId.ACCURACY,), config) for label in "MF"]
        assert len(calls) == drawn
        assert np.array_equal(first[0], second[1])

    def test_filling_order_does_not_change_results(self):
        def audit_dataset():
            rng = np.random.default_rng(17)
            n = 300
            score = rng.random(n)
            return AuditDataset(
                outcome=(rng.random(n) < 0.2 + 0.6 * score).astype(int),
                group=np.array(["a", "b", "c"] * (n // 3), dtype=object),
                score=score,
                decision=(score > 0.5).astype(int),
                covariates={"age": rng.uniform(20.0, 90.0, n)},
            )

        config = BootstrapConfig(iterations=50, seed=4)
        conditions = {"senior": "age >= 60"}
        filled = audit_dataset()
        resample_within_groups(filled, seed=4, iteration=7)
        for label in "ab":
            _group_replicates(filled, label, (MetricId.POSITIVE_RATE,), config)
        for label in "bc":
            _group_replicates(filled, label, (MetricId.BRIER_SCORE,), config)
        group_metric(filled, "c", MetricId.ACCURACY)
        independence_test(filled)
        fresh = audit_dataset()
        report = evaluate_all(filled, "a", "b", conditions=conditions, bootstrap=config)
        assert all(row.ci_diff is not None for row in report.rows)
        assert report == evaluate_all(fresh, "a", "b", conditions=conditions, bootstrap=config)
        assert incompatibility_verdict(filled) == incompatibility_verdict(fresh)

    def test_derived_datasets_start_with_an_empty_memo(self, toy):
        ds = AuditDataset(
            outcome=toy.outcome,
            group=toy.group,
            score=toy.score,
            decision=toy.decision,
            covariates={"age": np.linspace(20.0, 80.0, toy.n)},
        )
        filter_condition(ds, "age >= 30")
        for label in "FM":
            _group_replicates(ds, label, (MetricId.ACCURACY,), BootstrapConfig(iterations=5))
        assert len(ds._memo) == 5  # the stratum, two groups' cells, two replicate sets
        derived = (
            ds.take(np.arange(ds.n)),
            dataclasses.replace(ds, threshold=0.5),
            resample_within_groups(ds, seed=1),
        )
        for out in derived:
            assert out._memo == {}


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Bit-identical arrays, any NaN matching any NaN."""
    nan = np.isnan(x)
    return np.array_equal(nan, np.isnan(y)) and x[~nan].tobytes() == y[~nan].tobytes()


@st.composite
def memo_cases(draw):
    """A 2-3 group dataset factory, a group pair, two metric requests and a config.

    A group may hold one record without a decision or without a score, so
    the metrics that pair allows vary; both requests draw from those.
    """
    sizes = draw(st.lists(st.integers(1, 60), min_size=2, max_size=3))
    k = len(sizes)
    holes = draw(st.lists(st.sampled_from([None, "decision", "score"]), min_size=k, max_size=k))
    seed = draw(st.integers(0, 2**32 - 1))

    def make() -> AuditDataset:
        rng = np.random.Generator(np.random.PCG64(seed))
        n = sum(sizes)
        score = rng.random(n)
        decision = rng.integers(0, 2, n)
        first = np.cumsum(sizes) - sizes
        for start, hole in zip(first, holes):
            if hole == "decision":
                decision[start] = -1
            elif hole == "score":
                score[start] = np.nan
        return AuditDataset(
            outcome=rng.integers(0, 2, n),
            group=np.repeat(np.array([f"g{i}" for i in range(k)], dtype=object), sizes),
            score=score,
            decision=decision,
        )

    a, b = draw(st.permutations([f"g{i}" for i in range(k)]))[:2]
    probe = make()

    def allowed(label, metric) -> bool:
        try:
            group_metric(probe, label, metric)
        except InputError:
            return False
        return True

    applicable = tuple(m for m in MetricId if allowed(a, m) and allowed(b, m))
    requests = [
        tuple(draw(st.lists(st.sampled_from(applicable), min_size=1, unique=True)))
        for _ in range(2)
    ]
    iterations = draw(st.integers(2, 40))
    config = BootstrapConfig(iterations=iterations, seed=draw(st.integers(0, 1000)))
    return make, a, b, applicable, requests, config, draw(st.integers(0, iterations - 1))


class TestTermKeyedMemo:
    @settings(max_examples=150)
    @given(case=memo_cases())
    def test_requests_in_turn_match_a_fresh_full_request(self, case):
        make, a, b, applicable, requests, config, iteration = case
        ds = make()
        answers = [
            [_group_replicates(ds, label, metrics, config) for label in (a, b)]
            for metrics in requests
        ]
        fresh = make()
        full = {label: _group_replicates(fresh, label, applicable, config) for label in (a, b)}
        for metrics, answer in zip(requests, answers):
            for j, metric in enumerate(metrics):
                k = applicable.index(metric)
                for values, label in zip(answer, (a, b)):
                    assert same_bits(values[:, j], full[label][:, k]), metric
        resampled = resample_within_groups(ds, seed=config.seed, iteration=iteration)
        for label, values in full.items():
            # A group with an undecided record is cut by outcome alone; a
            # resample that misses that record is cut by decision too, so
            # its score sums add the same records in another grouping.
            exact = _cells(resampled, label).decided == _cells(ds, label).decided
            for k, metric in enumerate(applicable):
                expect = as_float(group_metric(resampled, label, metric))
                if exact or math.isnan(expect):
                    assert same(values[iteration, k], expect), metric
                else:
                    assert values[iteration, k] == pytest.approx(expect, rel=1e-12), metric


class TestDiffInterval:
    def test_matches_composed_oracle(self, toy):
        config = BootstrapConfig(iterations=80, seed=5)
        interval = ci_diff(toy, MetricId.POSITIVE_RATE, "F", "M", config)

        diffs = []
        for iteration in range(config.iterations):
            resampled = resample_within_groups(toy, seed=5, iteration=iteration)
            value_a = group_metric(resampled, "F", MetricId.POSITIVE_RATE)
            value_b = group_metric(resampled, "M", MetricId.POSITIVE_RATE)
            diffs.append(value_a - value_b)
        se = statistics.stdev(diffs)
        center = 3 / 8 - 2 / 4

        assert interval.method is IntervalMethod.WALD_DIFF
        assert interval.discarded == 0
        assert interval.lower == pytest.approx(center - Z_975 * se, rel=1e-12)
        assert interval.upper == pytest.approx(center + Z_975 * se, rel=1e-12)

    def test_constant_metric_collapses_to_point(self):
        ds = AuditDataset(
            outcome=np.array([1, 1, 1, 1, 1, 1]),
            group=np.array(["a"] * 3 + ["b"] * 3, dtype=object),
            decision=np.array([1, 1, 1, 1, 1, 1]),
        )
        config = BootstrapConfig(iterations=30, seed=1)
        diff = ci_diff(ds, MetricId.POSITIVE_RATE, "a", "b", config)
        assert diff.lower == 0.0 and diff.upper == 0.0
        ratio = ci_ratio(ds, MetricId.POSITIVE_RATE, "a", "b", config)
        assert ratio.lower == 1.0 and ratio.upper == 1.0

    def test_swap_negates_bounds_exactly(self, toy):
        config = BootstrapConfig(iterations=60, seed=21)
        forward = ci_diff(toy, MetricId.POSITIVE_RATE, "F", "M", config)
        backward = ci_diff(toy, MetricId.POSITIVE_RATE, "M", "F", config)
        assert forward.lower == -backward.upper
        assert forward.upper == -backward.lower

    def test_wider_at_higher_confidence(self, toy):
        loose = ci_diff(
            toy, MetricId.POSITIVE_RATE, "F", "M", BootstrapConfig(iterations=60, seed=8, alpha=0.10)
        )
        tight = ci_diff(
            toy, MetricId.POSITIVE_RATE, "F", "M", BootstrapConfig(iterations=60, seed=8, alpha=0.01)
        )
        assert (tight.upper - tight.lower) > (loose.upper - loose.lower)

    def test_undefined_point_estimate_rejected(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 1, 1, 1, 1]),
            group=np.array(["a"] * 3 + ["b"] * 3, dtype=object),
            decision=np.array([1, 0, 0, 1, 0, 1]),
        )
        with pytest.raises(InputError, match="undefined"):
            ci_diff(ds, MetricId.FPR, "a", "b", BootstrapConfig(iterations=10))

    def test_discard_tolerance_exceeded(self):
        # one positive in three records per group: resamples often carry
        # no positives at all, leaving the rate undefined far more often
        # than the default 1% tolerance allows
        ds = AuditDataset(
            outcome=np.array([1, 0, 0, 1, 0, 0]),
            group=np.array(["a"] * 3 + ["b"] * 3, dtype=object),
            decision=np.array([1, 0, 0, 0, 0, 1]),
        )
        config = BootstrapConfig(iterations=100, seed=0)
        with pytest.raises(ComputationError, match="discarded"):
            ci_diff(ds, MetricId.TPR, "a", "b", config)

    def test_tolerance_of_one_keeps_going(self):
        ds = AuditDataset(
            outcome=np.array([1, 0, 0, 1, 0, 0]),
            group=np.array(["a"] * 3 + ["b"] * 3, dtype=object),
            decision=np.array([1, 0, 0, 0, 0, 1]),
        )
        config = BootstrapConfig(iterations=100, seed=0, degenerate_tolerance=1.0)
        interval = ci_diff(ds, MetricId.TPR, "a", "b", config)
        assert interval.discarded > 0
        assert interval.lower <= 1.0 <= interval.upper

    def test_discards_at_the_tolerance_are_kept(self):
        # the default tolerance is 1%, so 1 discard in 100 passes and 2 do not
        config = BootstrapConfig(iterations=100)
        kept = np.arange(100) > 0
        assert inference._check_discarded(kept, config, "difference") == 1
        with pytest.raises(ComputationError, match="discarded 2 of 100 iterations"):
            inference._check_discarded(np.arange(100) > 1, config, "difference")

    def test_two_kept_iterations_suffice(self):
        config = BootstrapConfig(iterations=10, degenerate_tolerance=1.0)
        kept = np.array([True, True] + [False] * 8)
        assert inference._check_discarded(kept, config, "difference") == 8

    def test_fewer_than_two_kept_iterations_rejected(self):
        config = BootstrapConfig(iterations=10, degenerate_tolerance=1.0)
        kept = np.array([True] + [False] * 9)
        with pytest.raises(ComputationError, match="fewer than 2 usable bootstrap iterations"):
            inference._check_discarded(kept, config, "difference")


class TestRatioInterval:
    def test_matches_composed_oracle(self, toy):
        # small groups resample to zero positives now and then, so allow
        # discards and check the count against the oracle's kept set
        config = BootstrapConfig(iterations=80, seed=5, degenerate_tolerance=0.5)
        interval = ci_ratio(toy, MetricId.POSITIVE_RATE, "F", "M", config)

        log_ratios = []
        for iteration in range(config.iterations):
            resampled = resample_within_groups(toy, seed=5, iteration=iteration)
            value_a = group_metric(resampled, "F", MetricId.POSITIVE_RATE)
            value_b = group_metric(resampled, "M", MetricId.POSITIVE_RATE)
            if value_a > 0 and value_b > 0:
                log_ratios.append(math.log(value_a) - math.log(value_b))
        se = statistics.stdev(log_ratios)
        center = math.log(3 / 8) - math.log(2 / 4)

        assert interval.method is IntervalMethod.WALD_LOG_RATIO
        assert interval.discarded == config.iterations - len(log_ratios)
        assert interval.lower == pytest.approx(math.exp(center - Z_975 * se), rel=1e-12)
        assert interval.upper == pytest.approx(math.exp(center + Z_975 * se), rel=1e-12)

    def test_swap_is_reciprocal_on_log_scale(self, toy):
        config = BootstrapConfig(iterations=60, seed=21, degenerate_tolerance=0.5)
        forward = ci_ratio(toy, MetricId.POSITIVE_RATE, "F", "M", config)
        backward = ci_ratio(toy, MetricId.POSITIVE_RATE, "M", "F", config)
        assert forward.lower * backward.upper == pytest.approx(1.0, rel=1e-12)
        assert forward.upper * backward.lower == pytest.approx(1.0, rel=1e-12)

    def test_zero_point_estimate_rejected(self):
        ds = AuditDataset(
            outcome=np.array([0, 0, 1, 0, 0, 1]),
            group=np.array(["a"] * 3 + ["b"] * 3, dtype=object),
            decision=np.array([1, 0, 1, 0, 0, 1]),
        )
        with pytest.raises(InputError, match="strictly positive"):
            ci_ratio(ds, MetricId.FPR, "a", "b", BootstrapConfig(iterations=10))

    def test_zero_point_estimate_of_the_first_group_rejected(self):
        ds = AuditDataset(
            outcome=np.array([0, 0, 1, 0, 0, 1]),
            group=np.array(["a"] * 3 + ["b"] * 3, dtype=object),
            decision=np.array([0, 0, 1, 1, 0, 1]),
        )
        with pytest.raises(InputError, match="strictly positive"):
            ci_ratio(ds, MetricId.FPR, "a", "b", BootstrapConfig(iterations=10))

    def test_bound_overflowing_a_float_rejected(self):
        # group b's negatives score 1e-320 (subnormal), so the log ratio of
        # the mean negative scores is ~737, past what math.exp can return
        outcome = np.arange(400) % 3 == 0
        score = np.where(outcome, 0.5, 0.3)
        score[200:][~outcome[200:]] = 1e-320
        ds = AuditDataset(
            outcome=outcome.astype(int),
            group=np.array(["a"] * 200 + ["b"] * 200, dtype=object),
            score=score,
        )
        with pytest.raises(ComputationError, match="ratio interval bound overflows a float"):
            ci_ratio(ds, MetricId.MEAN_SCORE_NEG, "a", "b", BootstrapConfig(iterations=50))


class TestBatchedIntervals:
    def test_matches_single_metric_calls_exactly(self, toy):
        config = BootstrapConfig(iterations=50, seed=17, degenerate_tolerance=0.5)
        batched = bootstrap_intervals(
            toy, (MetricId.ACCURACY, MetricId.POSITIVE_RATE), "F", "M", config
        )
        for metric in (MetricId.ACCURACY, MetricId.POSITIVE_RATE):
            assert batched[metric].diff == ci_diff(toy, metric, "F", "M", config)
            assert batched[metric].ratio == ci_ratio(toy, metric, "F", "M", config)
            assert batched[metric].notes == ()

    def test_precondition_failures_become_notes(self):
        # fpr point estimate is 0 for group b and tpr is undefined for
        # group a, neither of which should abort the other metrics
        ds = AuditDataset(
            outcome=np.array([0, 0, 0, 0, 1, 0, 0, 0]),
            group=np.array(["a"] * 4 + ["b"] * 4, dtype=object),
            decision=np.array([1, 0, 1, 0, 1, 0, 0, 0]),
        )
        config = BootstrapConfig(iterations=40, seed=3, degenerate_tolerance=1.0)
        results = bootstrap_intervals(
            ds, (MetricId.FPR, MetricId.TPR, MetricId.POSITIVE_RATE), "a", "b", config
        )
        fpr = results[MetricId.FPR]
        assert fpr.diff is not None and fpr.ratio is None
        assert fpr.notes == ("ratio interval skipped: needs strictly positive values",)
        tpr = results[MetricId.TPR]
        assert tpr.diff is None and tpr.ratio is None
        assert tpr.notes == ("intervals skipped: point estimate undefined",)
        parity = results[MetricId.POSITIVE_RATE]
        assert parity.diff is not None and parity.ratio is not None

    def test_a_zero_point_estimate_of_the_first_group_becomes_a_note(self):
        ds = random_dataset({"a": 40, "b": 40}, seed=4)
        ds = dataclasses.replace(ds, decision=np.repeat([0, 1], 40) * ds.decision)
        assert group_metric(ds, "a", MetricId.POSITIVE_RATE) == 0.0
        (intervals,) = bootstrap_intervals(
            ds, (MetricId.POSITIVE_RATE,), "a", "b", BootstrapConfig(iterations=50)
        ).values()
        assert intervals.diff is not None and intervals.ratio is None
        assert intervals.notes == ("ratio interval skipped: needs strictly positive values",)

    # tpr is undefined for group a (no positives), so no interval forms;
    # fpr is 0 for group b, so only the ratio cannot form
    @pytest.mark.parametrize(
        "metric, interval, note",
        [(MetricId.TPR, ci_diff, "intervals"), (MetricId.FPR, ci_ratio, "ratio interval")],
    )
    def test_the_raised_text_is_the_note_text(self, metric, interval, note):
        ds = AuditDataset(
            outcome=np.array([0, 0, 0, 0, 1, 0, 0, 0]),
            group=np.array(["a"] * 4 + ["b"] * 4, dtype=object),
            decision=np.array([1, 0, 1, 0, 1, 0, 0, 0]),
        )
        config = BootstrapConfig(iterations=40, seed=3, degenerate_tolerance=1.0)
        with pytest.raises(InputError) as raised:
            interval(ds, metric, "a", "b", config)
        (noted,) = bootstrap_intervals(ds, (metric,), "a", "b", config)[metric].notes
        assert noted == f"{note} skipped: {raised.value}"
