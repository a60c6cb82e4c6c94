"""Tests for ROC / PR curve analysis."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.campaign import run_campaign
from repro.errors import ConfigurationError
from repro.metrics.curves import (
    auc_roc,
    average_precision,
    pr_points,
    roc_points,
)
from repro.tools.base import Detection, VulnerabilityDetectionTool
from repro.tools.taint_analyzer import TaintAnalyzer
from repro.workload.code_model import SinkSite
from repro.workload.taxonomy import VulnerabilityType

SQLI = VulnerabilityType.SQL_INJECTION


def sites(*pairs: tuple[float, bool]) -> tuple[np.ndarray, np.ndarray]:
    """(scores, vulnerable) arrays, one entry per ``(score, vulnerable)``."""
    scores = np.array([s for s, _ in pairs], dtype=float)
    vulnerable = np.array([v for _, v in pairs], dtype=bool)
    return scores, vulnerable


class TestScoreSites:
    """A campaign's score arrays follow the curves' scoring convention."""

    def test_unflagged_sites_score_zero(self, small_workload):
        tool = TaintAnalyzer()
        result = run_campaign([tool], small_workload).results[0]
        confidence = {
            d.site: d.confidence for d in tool.analyze(small_workload).detections
        }
        assert 0 < len(confidence) < small_workload.n_sites
        expected = [confidence.get(site, 0.0) for site in small_workload.truth.sites]
        assert result.scores.tolist() == expected

    def test_unknown_site_raises(self, small_workload):
        class Ghostly(VulnerabilityDetectionTool):
            def analyze(self, workload):
                ghost = SinkSite("ghost", 0, SQLI)
                return self._report(workload, [Detection(ghost)])

        with pytest.raises(ConfigurationError, match="absent from the workload"):
            run_campaign([Ghostly("ghostly")], small_workload)


class TestRocCurve:
    def test_perfect_ranker(self):
        scored = sites((0.9, True), (0.8, True), (0.2, False), (0.1, False))
        assert auc_roc(*scored) == pytest.approx(1.0)
        assert roc_points(*scored)[0] == (0.0, 0.0)
        assert roc_points(*scored)[-1] == (1.0, 1.0)

    def test_inverted_ranker(self):
        scored = sites((0.9, False), (0.8, False), (0.2, True), (0.1, True))
        assert auc_roc(*scored) == pytest.approx(0.0)

    def test_all_tied_is_chance(self):
        scored = sites((0.5, True), (0.5, False), (0.5, True), (0.5, False))
        assert auc_roc(*scored) == pytest.approx(0.5)

    def test_known_value(self):
        # positives at 0.9, 0.4; negatives at 0.6, 0.1
        # pairs: (0.9>0.6), (0.9>0.1), (0.4<0.6), (0.4>0.1) -> 3/4
        scored = sites((0.9, True), (0.4, True), (0.6, False), (0.1, False))
        assert auc_roc(*scored) == pytest.approx(0.75)

    def test_needs_both_classes(self):
        with pytest.raises(ConfigurationError):
            auc_roc(*sites((0.5, True)))
        with pytest.raises(ConfigurationError):
            auc_roc(*sites((0.5, False)))

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            roc_points([], [])

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.booleans()), min_size=4, max_size=40
        ).filter(
            lambda pairs: any(v for _, v in pairs) and any(not v for _, v in pairs)
        )
    )
    def test_auc_equals_mann_whitney(self, pairs):
        """AUC == P[positive scored above negative] with ties counted half."""
        scored = sites(*pairs)
        positives = [s for s, v in pairs if v]
        negatives = [s for s, v in pairs if not v]
        wins = sum(
            1.0 if p > n else (0.5 if p == n else 0.0)
            for p in positives
            for n in negatives
        )
        expected = wins / (len(positives) * len(negatives))
        assert auc_roc(*scored) == pytest.approx(expected, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.9, 1.0]) | st.floats(0, 1),
                st.booleans(),
            ),
            min_size=2,
            max_size=60,
        ).filter(
            lambda pairs: any(v for _, v in pairs) and any(not v for _, v in pairs)
        )
    )
    def test_points_equal_a_python_tally(self, pairs):
        """The array grouping reproduces the per-site dict tally exactly."""
        tally: dict[float, list[int]] = {}
        for score, vulnerable in pairs:
            tally.setdefault(score, [0, 0])[0 if vulnerable else 1] += 1
        positives = sum(1 for _, v in pairs if v)
        negatives = len(pairs) - positives
        roc, pr = [(0.0, 0.0)], []
        tp = fp = 0
        for _, (p, n) in sorted(tally.items(), reverse=True):
            tp += p
            fp += n
            roc.append((fp / negatives, tp / positives))
            pr.append((tp / positives, tp / (tp + fp)))
        assert roc_points(*sites(*pairs)) == roc
        assert pr_points(*sites(*pairs)) == pr

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.booleans()), min_size=4, max_size=40
        ).filter(
            lambda pairs: any(v for _, v in pairs) and any(not v for _, v in pairs)
        )
    )
    def test_roc_points_monotone(self, pairs):
        points = roc_points(*sites(*pairs))
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            assert x1 >= x0
            assert y1 >= y0


class TestPrCurve:
    def test_perfect_ranker_ap_is_one(self):
        scored = sites((0.9, True), (0.8, True), (0.2, False))
        assert average_precision(*scored) == pytest.approx(1.0)

    def test_known_ap(self):
        # Ranked: T(0.9), F(0.6), T(0.4).
        # Thresholds: @0.9 -> r=1/2, p=1; @0.6 -> r=1/2, p=1/2; @0.4 -> r=1, p=2/3.
        # AP = 0.5*1 + 0*0.5 + 0.5*(2/3) = 5/6.
        scored = sites((0.9, True), (0.6, False), (0.4, True))
        assert average_precision(*scored) == pytest.approx(5 / 6)

    def test_needs_a_positive(self):
        with pytest.raises(ConfigurationError):
            pr_points(*sites((0.5, False)))

    def test_recall_reaches_one(self):
        scored = sites((0.9, True), (0.1, True), (0.5, False))
        assert pr_points(*scored)[-1][0] == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.booleans()), min_size=3, max_size=40
        ).filter(lambda pairs: any(v for _, v in pairs))
    )
    def test_ap_within_unit_interval(self, pairs):
        assert 0.0 <= average_precision(*sites(*pairs)) <= 1.0 + 1e-9


class TestToolsProduceInformativeRankings:
    def test_reference_tools_beat_chance(self, reference_campaign, small_workload):
        assert reference_campaign.n_sites == small_workload.n_sites
        for result in reference_campaign.results:
            scored = (result.scores, reference_campaign.vulnerable)
            assert auc_roc(*scored) > 0.55, result.tool_name

    def test_taint_confidence_decays_with_depth(self, small_workload):
        from repro.tools.taint_analyzer import TaintAnalyzer

        report = TaintAnalyzer().analyze(small_workload)
        confidences = {d.confidence for d in report.detections}
        assert len(confidences) > 1  # graded, not constant
