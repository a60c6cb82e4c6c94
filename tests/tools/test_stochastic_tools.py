"""Tests for the dynamic injector and the simulated tools."""

from __future__ import annotations

import pytest

from repro.bench.campaign import score_report
from repro.errors import ToolError
from repro.tools.dynamic_injector import DynamicInjector
from repro.tools.simulated import SimulatedTool, ToolProfile
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.taxonomy import VulnerabilityType


@pytest.fixture(scope="module")
def workload():
    return generate_workload(
        WorkloadConfig(n_units=500, prevalence=0.2, seed=31, name="stochastic")
    )


class TestDynamicInjector:
    def test_deterministic_in_seed(self, workload):
        a = DynamicInjector(seed=5).analyze(workload)
        b = DynamicInjector(seed=5).analyze(workload)
        assert a == b

    def test_seed_changes_outcome(self, workload):
        a = DynamicInjector(seed=5).analyze(workload)
        b = DynamicInjector(seed=6).analyze(workload)
        assert a.flagged_sites != b.flagged_sites

    def test_higher_coverage_finds_more(self, workload):
        narrow = score_report(
            DynamicInjector(payload_coverage=0.3, seed=5).analyze(workload),
            workload.truth,
        )
        broad = score_report(
            DynamicInjector(payload_coverage=1.0, seed=5).analyze(workload),
            workload.truth,
        )
        assert broad.tp > narrow.tp

    def test_false_alarm_rate_calibrated(self, workload):
        cm = score_report(
            DynamicInjector(false_alarm_rate=0.1, seed=5).analyze(workload),
            workload.truth,
        )
        assert cm.fpr == pytest.approx(0.1, abs=0.03)

    def test_zero_false_alarm_rate_is_clean(self, workload):
        cm = score_report(
            DynamicInjector(false_alarm_rate=0.0, seed=5).analyze(workload),
            workload.truth,
        )
        assert cm.fp == 0

    def test_difficulty_penalty_hurts_recall(self, workload):
        easygoing = score_report(
            DynamicInjector(difficulty_penalty=0.0, seed=5).analyze(workload),
            workload.truth,
        )
        struggling = score_report(
            DynamicInjector(difficulty_penalty=1.0, seed=5).analyze(workload),
            workload.truth,
        )
        assert struggling.tp < easygoing.tp

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"payload_coverage": 0.0},
            {"payload_coverage": 1.5},
            {"difficulty_penalty": -0.1},
            {"false_alarm_rate": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ToolError):
            DynamicInjector(**kwargs)

    @pytest.mark.parametrize("confidence", [0.0, -0.2, 1.5])
    def test_confidence_out_of_range_rejected(self, confidence):
        with pytest.raises(ToolError, match="confidence"):
            DynamicInjector(confidence=confidence)
        assert DynamicInjector(confidence=1.0).confidence == 1.0


class TestToolProfile:
    def test_valid(self):
        profile = ToolProfile(recall=0.7, fpr=0.1)
        assert profile.detection_probability(VulnerabilityType.XSS, 0.0) == 0.7

    @pytest.mark.parametrize("kwargs", [{"recall": 1.5, "fpr": 0.1},
                                        {"recall": 0.5, "fpr": -0.1},
                                        {"recall": 0.5, "fpr": 0.1,
                                         "difficulty_sensitivity": 2.0}])
    def test_validation(self, kwargs):
        with pytest.raises(ToolError):
            ToolProfile(**kwargs)

    def test_per_type_override(self):
        profile = ToolProfile(
            recall=0.5,
            fpr=0.1,
            recall_by_type={VulnerabilityType.XSS: 0.9},
            fpr_by_type={VulnerabilityType.XSS: 0.0},
        )
        assert profile.detection_probability(VulnerabilityType.XSS, 0.0) == 0.9
        assert profile.detection_probability(VulnerabilityType.SQL_INJECTION, 0.0) == 0.5
        assert profile.false_alarm_probability(VulnerabilityType.XSS) == 0.0

    def test_rejects_bad_override(self):
        with pytest.raises(ToolError):
            ToolProfile(recall=0.5, fpr=0.1, recall_by_type={VulnerabilityType.XSS: 1.2})

    def test_difficulty_scales_detection(self):
        profile = ToolProfile(recall=0.8, fpr=0.1, difficulty_sensitivity=0.5)
        easy = profile.detection_probability(VulnerabilityType.XSS, 0.0)
        hard = profile.detection_probability(VulnerabilityType.XSS, 1.0)
        assert hard == pytest.approx(easy * 0.5)


class TestSimulatedTool:
    def test_deterministic(self, workload):
        profile = ToolProfile(recall=0.7, fpr=0.1)
        a = SimulatedTool("sim", profile, seed=3).analyze(workload)
        b = SimulatedTool("sim", profile, seed=3).analyze(workload)
        assert a == b

    def test_name_decorrelates_streams(self, workload):
        profile = ToolProfile(recall=0.7, fpr=0.1)
        a = SimulatedTool("sim-a", profile, seed=3).analyze(workload)
        b = SimulatedTool("sim-b", profile, seed=3).analyze(workload)
        assert a.flagged_sites != b.flagged_sites

    def test_rates_realized_on_large_workload(self, workload):
        profile = ToolProfile(recall=0.8, fpr=0.15, difficulty_sensitivity=0.0)
        cm = score_report(
            SimulatedTool("sim", profile, seed=3).analyze(workload), workload.truth
        )
        assert cm.tpr == pytest.approx(0.8, abs=0.07)
        assert cm.fpr == pytest.approx(0.15, abs=0.04)

    def test_extremes(self, workload):
        perfect = ToolProfile(recall=1.0, fpr=0.0, difficulty_sensitivity=0.0)
        cm = score_report(
            SimulatedTool("perfect", perfect, seed=3).analyze(workload), workload.truth
        )
        assert cm.fn == 0
        assert cm.fp == 0

        silent = ToolProfile(recall=0.0, fpr=0.0)
        cm = score_report(
            SimulatedTool("silent", silent, seed=3).analyze(workload), workload.truth
        )
        assert cm.tp == 0
        assert cm.fp == 0
