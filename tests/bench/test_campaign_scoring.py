"""Tests for campaign scoring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.campaign import (
    TAXONOMY,
    CampaignResult,
    ToolResult,
    run_campaign,
    score_report,
    tool_result,
)
from repro.bench.engine.context import RunContext
from repro.bench.experiments.r3_campaign import reference_workload
from repro.errors import ConfigurationError
from repro.metrics import definitions as d
from repro.tools.base import Detection, DetectionReport
from repro.tools.pattern_scanner import PatternScanner
from repro.tools.suite import reference_suite
from repro.workload.code_model import SinkSite
from repro.workload.ground_truth import GroundTruth
from repro.workload.taxonomy import VulnerabilityType

SQLI = VulnerabilityType.SQL_INJECTION
S1 = SinkSite("u1", 1, SQLI)  # vulnerable
S2 = SinkSite("u2", 1, SQLI)  # vulnerable
S3 = SinkSite("u3", 1, SQLI)  # safe
S4 = SinkSite("u4", 1, SQLI)  # safe
TRUTH = GroundTruth.from_sites([S1, S2, S3, S4], [S1, S2])


def report(*sites: SinkSite) -> DetectionReport:
    return DetectionReport(
        tool_name="t",
        workload_name="w",
        detections=tuple(Detection(site) for site in sites),
    )


class TestScoreReport:
    def test_all_four_cells(self):
        cm = score_report(report(S1, S3), TRUTH)
        assert cm.as_tuple() == (1, 1, 1, 1)

    def test_silent_tool(self):
        cm = score_report(report(), TRUTH)
        assert cm.as_tuple() == (0, 0, 2, 2)

    def test_flag_everything(self):
        cm = score_report(report(S1, S2, S3, S4), TRUTH)
        assert cm.as_tuple() == (2, 2, 0, 0)

    def test_perfect_tool(self):
        cm = score_report(report(S1, S2), TRUTH)
        assert cm.as_tuple() == (2, 0, 0, 2)

    def test_unknown_site_raises(self):
        stray = SinkSite("ghost", 0, SQLI)
        with pytest.raises(ConfigurationError, match="absent from the workload"):
            score_report(report(stray), TRUTH)


class TestRunCampaign:
    def test_requires_tools(self, small_workload):
        with pytest.raises(ConfigurationError):
            run_campaign([], small_workload)

    def test_result_per_tool(self, reference_campaign):
        assert len(reference_campaign.results) == 8

    def test_counts_sum_to_workload(self, reference_campaign, small_workload):
        for result in reference_campaign.results:
            assert result.confusion.total == small_workload.n_sites

    def test_metric_values_keyed_by_tool(self, reference_campaign):
        values = reference_campaign.metric_values(d.RECALL)
        assert set(values) == set(reference_campaign.tool_names)

    def test_confusion_lookup(self, reference_campaign):
        cm = reference_campaign.confusion_for("SA-Grep")
        assert cm is reference_campaign.result_for("SA-Grep").confusion

    def test_unknown_tool_raises(self, reference_campaign):
        with pytest.raises(ConfigurationError):
            reference_campaign.confusion_for("nope")

    def test_duplicate_tool_names_rejected(self, small_workload):
        campaign = run_campaign([PatternScanner(name="dup")], small_workload)
        result = campaign.results[0]
        with pytest.raises(ConfigurationError, match="duplicate"):
            CampaignResult(
                workload_name="w",
                results=(result, result),
                vulnerable=campaign.vulnerable,
                vuln_types=campaign.vuln_types,
            )

    def test_tool_result_metric_value(self, reference_campaign):
        result = reference_campaign.result_for("SA-Grep")
        assert result.metric_value(d.RECALL) == d.RECALL.value_or_nan(result.confusion)

    def test_site_columns_follow_truth_order(self, reference_campaign, small_workload):
        truth = small_workload.truth
        assert reference_campaign.n_sites == truth.n_sites
        assert reference_campaign.prevalence == truth.prevalence
        assert reference_campaign.vulnerable.tolist() == [
            site in truth.vulnerable for site in truth.sites
        ]
        assert [TAXONOMY[c] for c in reference_campaign.vuln_types.tolist()] == [
            site.vuln_type for site in truth.sites
        ]

    def test_confusions_match_score_report(self, reference_campaign, small_workload):
        for tool, result in zip(reference_suite(seed=101), reference_campaign.results):
            report = tool.analyze(small_workload)
            assert result.tool_name == tool.name
            assert result.confusion == score_report(report, small_workload.truth)
            assert int(np.count_nonzero(result.flags)) == report.n_detections

    def test_misaligned_columns_rejected(self):
        vulnerable = np.array([True, False, False])
        result = tool_result("t", np.array([0.5, 0.0, 0.0]), vulnerable)
        with pytest.raises(ConfigurationError, match="number of sites"):
            CampaignResult("w", (result,), vulnerable[:2], np.zeros(2, np.int8))
        with pytest.raises(ConfigurationError, match="number of sites"):
            CampaignResult("w", (result,), vulnerable, np.zeros(2, np.int8))


class TestColumnarReferenceCampaign:
    """RunContext scores the reference campaign from columns; it must equal
    the object path over the materialized reference workload."""

    @pytest.mark.parametrize("n_units", [1, 40, 150, 600])
    @pytest.mark.parametrize("seed", [0, 7, 2015])
    def test_equals_run_campaign(self, seed, n_units):
        columnar = RunContext(seed=seed).campaign(n_units=n_units)
        reference = run_campaign(
            reference_suite(seed=seed), reference_workload(seed=seed, n_units=n_units)
        )
        assert columnar.workload_name == reference.workload_name
        assert columnar.ecosystem == reference.ecosystem
        assert columnar.tool_names == reference.tool_names
        for got, want in zip(columnar.results, reference.results):
            assert got.confusion == want.confusion, got.tool_name
            assert got.scores.dtype == want.scores.dtype == np.float64
            assert np.array_equal(got.scores, want.scores), got.tool_name
        assert np.array_equal(columnar.vulnerable, reference.vulnerable)
        assert np.array_equal(columnar.vuln_types, reference.vuln_types)
        assert columnar.vuln_types.dtype == reference.vuln_types.dtype
        assert columnar == reference
