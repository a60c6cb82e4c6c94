"""Tests for the bootstrap machinery."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.metrics import definitions as d
from repro.metrics.confusion import ConfusionMatrix
from repro.metrics.registry import default_registry
from repro.stats.bootstrap import (
    BootstrapSummary,
    bootstrap_metric,
    bootstrap_metric_batch,
    bootstrap_metric_scalar,
    intervals_separated,
    percentile_interval,
    separation_detail,
    separation_fraction,
)

CM = ConfusionMatrix(tp=60, fp=40, fn=20, tn=380)

# Cells of 0-400 with zeros drawn often, so some matrices leave a metric
# undefined in some or all of their resamples.
cells = st.integers(0, 400) | st.just(0)
matrices = (
    st.tuples(cells, cells, cells, cells)
    .filter(lambda counts: sum(counts) > 0)
    .map(lambda counts: ConfusionMatrix(*map(float, counts)))
)


def make_summary(low: float, high: float) -> BootstrapSummary:
    return BootstrapSummary(
        metric_symbol="X",
        point_estimate=(low + high) / 2,
        mean=(low + high) / 2,
        std=(high - low) / 4,
        ci_low=low,
        ci_high=high,
        n_resamples=100,
        n_defined=100,
    )


class TestPercentileInterval:
    def test_symmetric_interval(self):
        values = list(range(101))
        low, high = percentile_interval(values, confidence=0.9)
        assert low == pytest.approx(5.0)
        assert high == pytest.approx(95.0)

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            percentile_interval([])

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 1.5])
    def test_bad_confidence_raises(self, confidence):
        with pytest.raises(ConfigurationError):
            percentile_interval([1.0, 2.0], confidence=confidence)


class TestBootstrapMetric:
    def test_deterministic_in_seed(self):
        a = bootstrap_metric(d.RECALL, CM, n_resamples=50, seed=3)
        b = bootstrap_metric(d.RECALL, CM, n_resamples=50, seed=3)
        assert a == b

    def test_point_estimate_matches_metric(self):
        summary = bootstrap_metric(d.RECALL, CM, n_resamples=50, seed=3)
        assert summary.point_estimate == pytest.approx(d.RECALL.compute(CM))

    def test_interval_contains_point_estimate(self):
        summary = bootstrap_metric(d.F1, CM, n_resamples=200, seed=3)
        assert summary.ci_low <= summary.point_estimate <= summary.ci_high

    def test_interval_narrows_with_workload_size(self):
        small = CM
        large = ConfusionMatrix(tp=600, fp=400, fn=200, tn=3800)
        narrow = bootstrap_metric(d.RECALL, large, n_resamples=200, seed=3)
        wide = bootstrap_metric(d.RECALL, small, n_resamples=200, seed=3)
        assert narrow.width < wide.width

    def test_defined_fraction_for_robust_metric(self):
        summary = bootstrap_metric(d.ACCURACY, CM, n_resamples=100, seed=3)
        assert summary.defined_fraction == 1.0
        assert summary.n_defined == 100

    def test_undefined_resamples_counted(self):
        # One needle: some resamples lose all positives and recall goes
        # undefined there.
        needle = ConfusionMatrix(tp=1, fp=0, fn=0, tn=30)
        summary = bootstrap_metric(d.RECALL, needle, n_resamples=300, seed=3)
        assert summary.n_defined < summary.n_resamples

    def test_all_undefined_yields_nan_summary(self):
        # A workload with no positives can never define recall.
        no_positives = ConfusionMatrix(tp=0, fp=5, fn=0, tn=55)
        summary = bootstrap_metric(d.RECALL, no_positives, n_resamples=20, seed=3)
        assert summary.n_defined == 0
        assert math.isnan(summary.mean)
        assert math.isnan(summary.ci_low)

    def test_too_few_resamples_raises(self):
        with pytest.raises(ConfigurationError):
            bootstrap_metric(d.RECALL, CM, n_resamples=1, seed=3)
        with pytest.raises(ConfigurationError):
            bootstrap_metric_scalar(d.RECALL, CM, n_resamples=1, seed=3)

    @pytest.mark.parametrize(
        "bootstrap",
        [bootstrap_metric, bootstrap_metric_scalar],
        ids=["batched", "scalar"],
    )
    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, -0.1, 1.5])
    def test_bad_confidence_raises_even_when_never_defined(
        self, confidence, bootstrap
    ):
        # Precision is undefined in every resample of a tool that flags
        # nothing, so no interval is ever computed; the check still holds,
        # with the same message on the batched path and the scalar oracle.
        silent = ConfusionMatrix(tp=0, fp=0, fn=5, tn=95)
        message = re.escape(f"confidence={confidence} must be in (0, 1)")
        for cm in (silent, CM):
            with pytest.raises(ConfigurationError, match=message):
                bootstrap(d.PRECISION, cm, confidence=confidence, seed=3)


class TestBootstrapMetricBatch:
    def test_empty_batch(self):
        assert bootstrap_metric_batch(d.RECALL, [], []) == []

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_resamples": 1}, "n_resamples"),
            ({"confidence": 0.0}, "confidence"),
            ({"confidence": 1.0}, "confidence"),
            ({"confidence": 1.5}, "confidence"),
        ],
    )
    def test_bad_arguments_raise_before_drawing(self, kwargs, match):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match=match):
            bootstrap_metric_batch(d.RECALL, [CM, CM], [rng, rng], **kwargs)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n_seeds", [0, 1, 3])
    def test_one_seed_per_matrix(self, n_seeds):
        with pytest.raises(ConfigurationError, match="one seed per matrix"):
            bootstrap_metric_batch(d.RECALL, [CM, CM], list(range(n_seeds)))


class TestVectorizedMatchesScalar:
    """The batched path must be byte-identical to the reference loop."""

    @pytest.mark.parametrize(
        "metric", [d.RECALL, d.PRECISION, d.F1, d.MCC, d.KAPPA, d.DOR, d.LIFT],
        ids=lambda m: m.symbol,
    )
    @pytest.mark.parametrize("seed", [0, 3, 2015])
    def test_summaries_identical(self, metric, seed):
        fast = bootstrap_metric(metric, CM, n_resamples=120, seed=seed)
        slow = bootstrap_metric_scalar(metric, CM, n_resamples=120, seed=seed)
        assert fast == slow

    def test_identical_on_partially_undefined_metric(self):
        needle = ConfusionMatrix(tp=1, fp=0, fn=0, tn=30)
        fast = bootstrap_metric(d.RECALL, needle, n_resamples=300, seed=3)
        slow = bootstrap_metric_scalar(d.RECALL, needle, n_resamples=300, seed=3)
        assert fast == slow
        assert fast.n_defined < fast.n_resamples

    def test_identical_with_generator_seed(self):
        import numpy as np

        fast = bootstrap_metric(
            d.F1, CM, n_resamples=80, seed=np.random.default_rng(11)
        )
        slow = bootstrap_metric_scalar(
            d.F1, CM, n_resamples=80, seed=np.random.default_rng(11)
        )
        assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(
        metric=st.sampled_from(list(default_registry())),
        pairs=st.lists(
            st.tuples(matrices, st.integers(0, 2**63 - 1)), min_size=1, max_size=8
        ),
        # Crosses numpy's 128-element pairwise-summation block.
        n_resamples=st.integers(2, 400),
    )
    def test_batch_equals_scalar_oracle_per_matrix(self, metric, pairs, n_resamples):
        confusions = [cm for cm, _ in pairs]
        seeds = [seed for _, seed in pairs]
        batch = bootstrap_metric_batch(metric, confusions, seeds, n_resamples)
        oracle = [
            bootstrap_metric_scalar(metric, cm, n_resamples, seed=seed)
            for cm, seed in pairs
        ]
        # repr, so NaN fields compare equal.
        assert list(map(repr, batch)) == list(map(repr, oracle))

    def test_batch_mixes_defined_and_undefined_matrices(self):
        confusions = [
            CM,  # every resample defined
            ConfusionMatrix(tp=1, fp=0, fn=0, tn=30),  # some undefined
            ConfusionMatrix(tp=0, fp=5, fn=0, tn=55),  # all undefined
            ConfusionMatrix(tp=600, fp=400, fn=200, tn=3800),
        ]
        seeds = [3, 4, 5, 6]
        batch = bootstrap_metric_batch(d.RECALL, confusions, seeds, n_resamples=300)
        assert batch[0].n_defined == batch[3].n_defined == 300
        assert 0 < batch[1].n_defined < 300
        assert batch[2].n_defined == 0
        oracle = [
            bootstrap_metric_scalar(d.RECALL, cm, n_resamples=300, seed=seed)
            for cm, seed in zip(confusions, seeds)
        ]
        assert list(map(repr, batch)) == list(map(repr, oracle))

    def test_batch_with_one_generator_draws_matrices_in_order(self):
        confusions = [CM, ConfusionMatrix(tp=9, fp=3, fn=4, tn=84)]
        shared = np.random.default_rng(11)
        batch = bootstrap_metric_batch(d.F1, confusions, [shared, shared], 80)
        replay = np.random.default_rng(11)
        sequential = [
            bootstrap_metric(d.F1, cm, n_resamples=80, seed=replay) for cm in confusions
        ]
        assert batch == sequential

    def test_percentile_interval_accepts_ndarray(self):
        import numpy as np

        values = np.arange(101, dtype=float)
        assert percentile_interval(values, confidence=0.9) == percentile_interval(
            values.tolist(), confidence=0.9
        )


class TestSeparation:
    def test_disjoint_intervals_separated(self):
        assert intervals_separated(make_summary(0.1, 0.2), make_summary(0.3, 0.4))

    def test_overlapping_intervals_not_separated(self):
        assert not intervals_separated(make_summary(0.1, 0.35), make_summary(0.3, 0.4))

    def test_nan_intervals_never_separated(self):
        nan_summary = BootstrapSummary(
            metric_symbol="X",
            point_estimate=0.5,
            mean=float("nan"),
            std=float("nan"),
            ci_low=float("nan"),
            ci_high=float("nan"),
            n_resamples=10,
            n_defined=0,
        )
        assert not intervals_separated(nan_summary, make_summary(0.1, 0.2))

    def test_order_irrelevant(self):
        a, b = make_summary(0.1, 0.2), make_summary(0.5, 0.6)
        assert intervals_separated(a, b) == intervals_separated(b, a)

    def test_separation_fraction(self):
        summaries = [
            make_summary(0.0, 0.1),
            make_summary(0.2, 0.3),
            make_summary(0.25, 0.35),
        ]
        # pairs: (0,1) separated, (0,2) separated, (1,2) overlap -> 2/3
        assert separation_fraction(summaries) == pytest.approx(2 / 3)

    def test_separation_needs_two(self):
        with pytest.raises(ConfigurationError):
            separation_fraction([make_summary(0, 1)])

    def test_detail_counts_nan_pairs_instead_of_hiding_them(self):
        nan = float("nan")
        undefined = BootstrapSummary(
            metric_symbol="X", point_estimate=0.5, mean=nan, std=nan,
            ci_low=nan, ci_high=nan, n_resamples=10, n_defined=0,
        )
        summaries = [make_summary(0.0, 0.1), make_summary(0.2, 0.3), undefined]
        detail = separation_detail(summaries)
        assert detail.n_tools == 3
        assert detail.n_pairs == 3
        assert detail.n_undefined_pairs == 2
        assert detail.n_defined_pairs == 1
        assert detail.n_separated == 1
        # The undefined pairs no longer drag the fraction down.
        assert detail.fraction == 1.0
        assert separation_fraction(summaries) == 1.0

    def test_detail_all_nan_is_nan_fraction(self):
        nan = float("nan")
        undefined = BootstrapSummary(
            metric_symbol="X", point_estimate=0.5, mean=nan, std=nan,
            ci_low=nan, ci_high=nan, n_resamples=10, n_defined=0,
        )
        detail = separation_detail([undefined, undefined])
        assert detail.n_defined_pairs == 0
        assert math.isnan(detail.fraction)
        assert math.isnan(separation_fraction([undefined, undefined]))

    def test_detail_agrees_with_pairwise_loop(self):
        summaries = [
            make_summary(0.0, 0.1),
            make_summary(0.05, 0.2),
            make_summary(0.3, 0.4),
            make_summary(0.45, 0.5),
        ]
        detail = separation_detail(summaries)
        n = len(summaries)
        expected = sum(
            intervals_separated(summaries[i], summaries[j])
            for i in range(n)
            for j in range(i + 1, n)
        )
        assert detail.n_separated == expected
        assert detail.n_pairs == n * (n - 1) // 2
        assert detail.n_undefined_pairs == 0
