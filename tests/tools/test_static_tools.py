"""Tests for the pattern scanner and the taint analyzer.

The load-bearing invariant: a taint analyzer with no depth limit and a full
sanitizer model *is* the oracle — zero false positives and zero false
negatives on any generated workload.  Each configured weakness then breaks
exactly the error class it is documented to break.
"""

from __future__ import annotations

import pytest

from repro.bench.campaign import score_report
from repro.errors import ToolError
from repro.tools.pattern_scanner import PatternScanner
from repro.tools.taint_analyzer import TaintAnalyzer
from repro.workload.generator import WorkloadConfig, generate_workload


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadConfig(n_units=200, prevalence=0.2, decoy_fraction=0.6, seed=23)
    )


class TestPatternScanner:
    def test_flags_every_sink_in_units_with_input(self, workload):
        report = PatternScanner().analyze(workload)
        cm = score_report(report, workload.truth)
        # Every vulnerable site lives in a unit with an input: perfect recall.
        assert cm.fn == 0
        # And the decoys/mixed units guarantee false alarms.
        assert cm.fp > 0

    def test_silent_on_input_free_units(self, workload):
        report = PatternScanner().analyze(workload)
        flagged_units = {d.site.unit_id for d in report.detections}
        for unit in workload.units:
            has_input = any(s.kind.value == "input" for s in unit.statements)
            if not has_input:
                assert unit.unit_id not in flagged_units

    def test_sanitizer_awareness_reduces_false_positives(self, workload):
        naive = score_report(PatternScanner().analyze(workload), workload.truth)
        aware = score_report(
            PatternScanner(respect_sanitizers=True).analyze(workload), workload.truth
        )
        assert aware.fp < naive.fp

    def test_deterministic(self, workload):
        assert PatternScanner().analyze(workload) == PatternScanner().analyze(workload)

    @pytest.mark.parametrize("confidence", [0.0, -0.2, 1.5])
    def test_confidence_out_of_range_rejected(self, confidence):
        # Rejected at construction, not at the first finding: the columnar
        # path builds no Detection that could catch it later.
        with pytest.raises(ToolError, match="confidence"):
            PatternScanner(confidence=confidence)
        assert PatternScanner(confidence=1.0).confidence == 1.0

    def test_report_metadata(self, workload):
        report = PatternScanner(name="scanner-x").analyze(workload)
        assert report.tool_name == "scanner-x"
        assert report.workload_name == workload.name


class TestTaintAnalyzer:
    def test_unlimited_analyzer_is_the_oracle(self, workload):
        """Full depth + sanitizer model => exact ground truth."""
        report = TaintAnalyzer(trust_sanitizers=True, max_chain_depth=None).analyze(
            workload
        )
        cm = score_report(report, workload.truth)
        assert cm.fp == 0
        assert cm.fn == 0

    def test_depth_limit_causes_only_false_negatives(self, workload):
        limited = TaintAnalyzer(trust_sanitizers=True, max_chain_depth=2).analyze(
            workload
        )
        cm = score_report(limited, workload.truth)
        assert cm.fp == 0  # a depth limit never invents flows
        assert cm.fn > 0  # but it drops deep ones

    def test_deeper_budget_finds_more(self, workload):
        shallow = score_report(
            TaintAnalyzer(max_chain_depth=1).analyze(workload), workload.truth
        )
        deep = score_report(
            TaintAnalyzer(max_chain_depth=6).analyze(workload), workload.truth
        )
        assert deep.tp > shallow.tp

    def test_ignoring_sanitizers_causes_only_false_positives(self, workload):
        unsound = TaintAnalyzer(trust_sanitizers=False).analyze(workload)
        cm = score_report(unsound, workload.truth)
        assert cm.fn == 0  # ignoring sanitizers never loses taint
        assert cm.fp > 0  # every decoy now fires

    def test_false_positives_are_exactly_the_decoys(self, workload):
        unsound = TaintAnalyzer(trust_sanitizers=False).analyze(workload)
        for detection in unsound.detections:
            site = detection.site
            if site not in workload.truth.vulnerable:
                assert workload.profiles[site].sanitizer_present

    def test_concat_taint_loss_causes_false_negatives(self, workload):
        lossy = TaintAnalyzer(concat_taint_loss=True).analyze(workload)
        cm = score_report(lossy, workload.truth)
        assert cm.fp == 0
        assert cm.fn > 0

    @pytest.mark.parametrize("confidence", [0.0, -0.2, 1.5])
    def test_confidence_out_of_range_rejected(self, confidence):
        # confidence=0.0 used to be clamped to 0.05 at every finding.
        with pytest.raises(ToolError, match="confidence"):
            TaintAnalyzer(confidence=confidence)
        assert TaintAnalyzer(confidence=1.0).confidence == 1.0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            TaintAnalyzer(max_chain_depth=-1)

    def test_deterministic(self, workload):
        a = TaintAnalyzer(max_chain_depth=3).analyze(workload)
        b = TaintAnalyzer(max_chain_depth=3).analyze(workload)
        assert a == b
