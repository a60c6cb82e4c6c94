"""Tests for per-vulnerability-type breakdowns and aggregation."""

from __future__ import annotations

import math

import pytest

from repro.bench.pertype import (
    PerTypeBreakdown,
    breakdown_report,
    campaign_breakdowns,
    macro_average,
    micro_average,
)
from repro.errors import ConfigurationError
from repro.metrics import definitions as d
from repro.metrics.confusion import ConfusionMatrix
from repro.workload.taxonomy import VulnerabilityType

SQLI = VulnerabilityType.SQL_INJECTION
XSS = VulnerabilityType.XSS


class TestBreakdownReport:
    def test_cells_sum_to_campaign_matrix(self, reference_campaign):
        for result in reference_campaign.results:
            breakdown = breakdown_report(result, reference_campaign)
            pooled = None
            for cm in breakdown.by_type.values():
                pooled = cm if pooled is None else pooled + cm
            assert pooled == result.confusion

    def test_types_match_workload(self, reference_campaign, small_workload):
        in_order = list(
            dict.fromkeys(site.vuln_type for site in small_workload.truth.sites)
        )
        breakdown = breakdown_report(
            reference_campaign.results[0], reference_campaign
        )
        # First-appearance order: macro averages sum in this order.
        assert list(breakdown.by_type) == in_order

    def test_matrix_for_unknown_type_raises(self):
        breakdown = PerTypeBreakdown(
            tool_name="t", by_type={SQLI: ConfusionMatrix(1, 1, 1, 1)}
        )
        with pytest.raises(ConfigurationError):
            breakdown.matrix_for(XSS)

    def test_empty_breakdown_rejected(self):
        with pytest.raises(ConfigurationError):
            PerTypeBreakdown(tool_name="t", by_type={})

    def test_campaign_breakdowns_cover_all_tools(self, reference_campaign):
        breakdowns = campaign_breakdowns(reference_campaign)
        assert set(breakdowns) == set(reference_campaign.tool_names)


class TestAggregation:
    def make_breakdown(self) -> PerTypeBreakdown:
        # Strong on a rare class (10 positives, recall 0.9), weak on a
        # dominant one (100 positives, recall 0.1).
        return PerTypeBreakdown(
            tool_name="t",
            by_type={
                SQLI: ConfusionMatrix(tp=9, fp=1, fn=1, tn=9),
                XSS: ConfusionMatrix(tp=10, fp=9, fn=90, tn=81),
            },
        )

    def test_macro_is_unweighted_mean(self):
        breakdown = self.make_breakdown()
        per_type = breakdown.metric_by_type(d.RECALL)
        expected = (per_type[SQLI] + per_type[XSS]) / 2
        assert macro_average(breakdown, d.RECALL) == pytest.approx(expected)

    def test_micro_equals_pooled_metric(self):
        breakdown = self.make_breakdown()
        pooled = ConfusionMatrix(tp=19, fp=10, fn=91, tn=90)
        assert micro_average(breakdown, d.RECALL) == pytest.approx(
            d.RECALL.compute(pooled)
        )

    def test_macro_and_micro_differ_under_imbalance(self):
        # Macro averages the two recalls (0.5); micro is dominated by the
        # weak, populous class (19/110).
        breakdown = self.make_breakdown()
        assert macro_average(breakdown, d.RECALL) == pytest.approx(0.5)
        assert micro_average(breakdown, d.RECALL) == pytest.approx(19 / 110)

    def test_macro_skips_undefined_classes(self):
        breakdown = PerTypeBreakdown(
            tool_name="t",
            by_type={
                SQLI: ConfusionMatrix(tp=5, fp=0, fn=5, tn=0),  # precision defined
                XSS: ConfusionMatrix(tp=0, fp=0, fn=2, tn=8),  # precision undefined
            },
        )
        assert macro_average(breakdown, d.PRECISION) == pytest.approx(1.0)

    def test_macro_nan_when_undefined_everywhere(self):
        breakdown = PerTypeBreakdown(
            tool_name="t",
            by_type={SQLI: ConfusionMatrix(tp=0, fp=0, fn=2, tn=8)},
        )
        assert math.isnan(macro_average(breakdown, d.PRECISION))

    def test_single_class_macro_equals_micro(self):
        breakdown = PerTypeBreakdown(
            tool_name="t", by_type={SQLI: ConfusionMatrix(tp=5, fp=2, fn=3, tn=10)}
        )
        assert macro_average(breakdown, d.F1) == pytest.approx(
            micro_average(breakdown, d.F1)
        )
