"""Tests for McNemar's test and Wilson intervals."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.campaign import tool_result
from repro.errors import ConfigurationError
from repro.stats.significance import (
    PairedOutcomes,
    mcnemar_exact,
    paired_outcomes,
    wilson_interval,
)


def outcomes(only_first: int, only_second: int, both_correct: int = 10,
             both_wrong: int = 5) -> PairedOutcomes:
    return PairedOutcomes(
        first_tool="a",
        second_tool="b",
        both_correct=both_correct,
        only_first=only_first,
        only_second=only_second,
        both_wrong=both_wrong,
    )


class TestPairedOutcomes:
    def make_results(self):
        # Sites s0..s5; s0, s1, s2 are vulnerable.
        truth = np.array([True, True, True, False, False, False])
        # Tool A flags s0, s1 (correct on s0, s1, s4, s5; wrong on s2, s3? ->
        # s3 is safe & unflagged: correct. wrong on s2 only).
        result_a = tool_result("a", np.array([0.9, 0.5, 0, 0, 0, 0]), truth)
        # Tool B flags s0, s3: correct on s0, s4, s5; wrong on s1, s2, s3.
        result_b = tool_result("b", np.array([1.0, 0, 0, 0.2, 0, 0]), truth)
        return result_a, result_b, truth

    def test_table_counts(self):
        result_a, result_b, truth = self.make_results()
        table = paired_outcomes(result_a, result_b, truth)
        assert (table.first_tool, table.second_tool) == ("a", "b")
        assert table.n_sites == 6
        assert table.both_correct == 3  # s0, s4, s5
        assert table.only_first == 2  # s1, s3
        assert table.only_second == 0
        assert table.both_wrong == 1  # s2
        assert table.discordant == 2

    def test_workload_mismatch_rejected(self):
        result_a, result_b, truth = self.make_results()
        # A result scored on another (four-site) workload.
        other = tool_result("b", np.zeros(4), np.zeros(4, dtype=bool))
        with pytest.raises(ConfigurationError, match="different site lists"):
            paired_outcomes(result_a, other, truth)
        with pytest.raises(ConfigurationError, match="different site lists"):
            paired_outcomes(result_a, result_b, truth[:4])

    def test_symmetry(self):
        result_a, result_b, truth = self.make_results()
        ab = paired_outcomes(result_a, result_b, truth)
        ba = paired_outcomes(result_b, result_a, truth)
        assert ab.only_first == ba.only_second
        assert ab.both_correct == ba.both_correct


def exact_mcnemar(only_first: int, only_second: int) -> float:
    """The two-sided exact p-value in rational arithmetic, rounded once."""
    n = only_first + only_second
    k = min(only_first, only_second)
    tail = Fraction(sum(math.comb(n, i) for i in range(k + 1)), 2**n)
    return float(min(Fraction(1), 2 * tail))


class TestMcNemar:
    def test_no_discordance_is_one(self):
        assert mcnemar_exact(outcomes(0, 0)) == 1.0

    def test_balanced_discordance_not_significant(self):
        assert mcnemar_exact(outcomes(5, 5)) > 0.5

    def test_lopsided_discordance_significant(self):
        assert mcnemar_exact(outcomes(25, 2)) < 0.001

    def test_symmetric_in_direction(self):
        assert mcnemar_exact(outcomes(12, 3)) == mcnemar_exact(outcomes(3, 12))

    def test_matches_scipy_binomtest(self):
        for only_first, only_second in [(8, 2), (15, 5), (3, 3), (20, 1), (7, 0)]:
            ours = mcnemar_exact(outcomes(only_first, only_second))
            n = only_first + only_second
            theirs = scipy.stats.binomtest(
                min(only_first, only_second), n, 0.5, alternative="two-sided"
            ).pvalue
            assert ours == pytest.approx(theirs, abs=1e-9), (only_first, only_second)

    def test_p_value_in_unit_interval(self):
        for a in range(0, 12):
            for b in range(0, 12):
                p = mcnemar_exact(outcomes(a, b))
                assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize(
        "only_first, only_second",
        [
            (540, 540),  # tail past 2**1024: a float sum overflows
            (520, 600),
            (10, 1100),  # 0.5**1110 underflows; the p-value is subnormal
        ],
    )
    def test_large_discordant_counts(self, only_first, only_second):
        p_value = mcnemar_exact(outcomes(only_first, only_second))
        assert p_value == exact_mcnemar(only_first, only_second)
        assert p_value > 0.0

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 3000), data=st.data())
    def test_equals_the_rational_oracle(self, n, data):
        only_first = data.draw(st.integers(0, n))
        only_second = n - only_first
        assert mcnemar_exact(outcomes(only_first, only_second)) == exact_mcnemar(
            only_first, only_second
        )


class TestWilson:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_behaves_at_extremes(self):
        low, high = wilson_interval(50, 50)
        assert high == pytest.approx(1.0)
        assert low < 0.95  # perfect observed != certainty
        low, high = wilson_interval(0, 50)
        assert low == pytest.approx(0.0)
        assert high > 0.05

    def test_narrows_with_more_trials(self):
        small = wilson_interval(8, 10)
        large = wilson_interval(800, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_higher_confidence_is_wider(self):
        narrow = wilson_interval(30, 100, confidence=0.8)
        wide = wilson_interval(30, 100, confidence=0.99)
        assert (wide[1] - wide[0]) > (narrow[1] - narrow[0])

    def test_matches_scipy_normal_quantile(self):
        # Indirect check of the internal quantile approximation.
        from repro.stats.significance import _normal_quantile

        for p in (0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.995):
            assert _normal_quantile(p) == pytest.approx(
                scipy.stats.norm.ppf(p), abs=1e-7
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"successes": -1, "trials": 10},
            {"successes": 11, "trials": 10},
            {"successes": 5, "trials": 0},
            {"successes": 5, "trials": 10, "confidence": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            wilson_interval(**kwargs)

    def test_coverage_simulation(self):
        """Wilson intervals cover the true proportion ~95% of the time."""
        import numpy as np

        rng = np.random.default_rng(3)
        p_true = 0.3
        covered = 0
        trials = 400
        for _ in range(trials):
            successes = rng.binomial(80, p_true)
            low, high = wilson_interval(int(successes), 80)
            covered += low <= p_true <= high
        assert covered / trials > 0.9


class TestCampaignSignificance:
    def test_extreme_tools_differ_significantly(
        self, reference_campaign, small_workload
    ):
        grep = reference_campaign.result_for("SA-Grep")
        deep = reference_campaign.result_for("SA-Deep")
        table = paired_outcomes(grep, deep, reference_campaign.vulnerable)
        assert table.n_sites == small_workload.n_sites
        assert mcnemar_exact(table) < 0.01

    def test_tool_vs_itself_is_not_significant(
        self, reference_campaign, small_workload
    ):
        grep = reference_campaign.result_for("SA-Grep")
        table = paired_outcomes(grep, grep, reference_campaign.vulnerable)
        assert table.n_sites == small_workload.n_sites
        assert mcnemar_exact(table) == 1.0
