"""Tests for severity-weighted scoring."""

from __future__ import annotations

import pytest

from repro.bench.campaign import score_report
from repro.bench.weighted import DEFAULT_SEVERITIES, score_report_weighted
from repro.errors import ConfigurationError
from repro.metrics import definitions as d
from repro.tools.base import Detection, DetectionReport
from repro.tools.suite import reference_suite
from repro.workload.code_model import SinkSite
from repro.workload.ground_truth import GroundTruth
from repro.workload.taxonomy import VulnerabilityType

SQLI = VulnerabilityType.SQL_INJECTION  # severity 9.8
XSS = VulnerabilityType.XSS  # severity 6.1

S_SQLI = SinkSite("u1", 1, SQLI)  # vulnerable
S_XSS = SinkSite("u2", 1, XSS)  # vulnerable
S_SAFE = SinkSite("u3", 1, XSS)  # safe
TRUTH = GroundTruth.from_sites([S_SQLI, S_XSS, S_SAFE], [S_SQLI, S_XSS])


def suite():
    """The tools of the ``reference_campaign`` fixture, in campaign order."""
    return reference_suite(seed=101)


def report(*sites: SinkSite) -> DetectionReport:
    return DetectionReport(
        tool_name="t", workload_name="w",
        detections=tuple(Detection(s) for s in sites),
    )


class TestWeightedScoring:
    def test_weights_flow_into_cells(self):
        cm = score_report_weighted(report(S_SQLI), TRUTH)
        assert cm.tp == pytest.approx(9.8)
        assert cm.fn == pytest.approx(6.1)
        assert cm.tn == pytest.approx(6.1)
        assert cm.fp == 0.0

    def test_severity_changes_the_verdict(self):
        """Two tools with one detection each: unweighted recall ties them,
        weighted recall prefers the one that found the riskier bug."""
        sqli_finder = report(S_SQLI)
        xss_finder = report(S_XSS)
        unweighted = (
            d.RECALL.compute(score_report(sqli_finder, TRUTH)),
            d.RECALL.compute(score_report(xss_finder, TRUTH)),
        )
        assert unweighted[0] == unweighted[1]
        weighted = (
            d.RECALL.compute(score_report_weighted(sqli_finder, TRUTH)),
            d.RECALL.compute(score_report_weighted(xss_finder, TRUTH)),
        )
        assert weighted[0] > weighted[1]

    def test_uniform_weights_reduce_to_unweighted(self, reference_campaign, small_workload):
        uniform = {t: 2.5 for t in VulnerabilityType}
        for tool, result in zip(suite(), reference_campaign.results):
            assert tool.name == result.tool_name
            weighted = score_report_weighted(
                tool.analyze(small_workload), small_workload.truth, severities=uniform
            )
            plain = result.confusion
            # Same matrix up to the constant weight factor: every
            # ratio-based metric agrees exactly.
            assert d.RECALL.value_or_nan(weighted) == pytest.approx(
                d.RECALL.value_or_nan(plain), nan_ok=True
            )
            assert d.MCC.value_or_nan(weighted) == pytest.approx(
                d.MCC.value_or_nan(plain), nan_ok=True
            )
            assert weighted.total == pytest.approx(plain.total * 2.5)

    def test_total_is_total_severity(self):
        cm = score_report_weighted(report(), TRUTH)
        assert cm.total == pytest.approx(9.8 + 6.1 + 6.1)

    def test_missing_class_rejected(self):
        with pytest.raises(ConfigurationError, match="no severity"):
            score_report_weighted(report(), TRUTH, severities={SQLI: 9.8})

    def test_non_positive_weight_rejected(self):
        bad = dict(DEFAULT_SEVERITIES)
        bad[XSS] = 0.0
        with pytest.raises(ConfigurationError, match="positive"):
            score_report_weighted(report(), TRUTH, severities=bad)

    def test_unknown_site_rejected(self):
        ghost = SinkSite("ghost", 0, SQLI)
        with pytest.raises(ConfigurationError, match="absent"):
            score_report_weighted(report(ghost), TRUTH)

    def test_default_severities_cover_taxonomy(self):
        assert set(DEFAULT_SEVERITIES) == set(VulnerabilityType)

    def test_weighted_campaign_reranks_tools(self, reference_campaign, small_workload):
        """Severity weighting can reorder tools whose strengths sit on
        different vulnerability classes."""
        weighted_recalls = {}
        plain_recalls = {}
        for tool, result in zip(suite(), reference_campaign.results):
            assert tool.name == result.tool_name
            weighted = score_report_weighted(
                tool.analyze(small_workload), small_workload.truth
            )
            weighted_recalls[result.tool_name] = d.RECALL.value_or_nan(weighted)
            plain_recalls[result.tool_name] = d.RECALL.value_or_nan(result.confusion)
        # Values must differ somewhere (the suite has class-skewed tools)...
        assert any(
            weighted_recalls[t] != pytest.approx(plain_recalls[t])
            for t in weighted_recalls
        )
