"""Tests for the scenario report generator and experiments R15/R16."""

from __future__ import annotations

import math

import pytest

from repro.bench.experiments import r15_difficulty, r16_stability
from repro.bench.report import build_scenario_report
from repro.metrics import definitions as d
from repro.scenarios.scenarios import scenario_by_key

SEED = 99


class TestScenarioReport:
    @pytest.fixture(scope="class")
    def critical_report(self, reference_campaign):
        return build_scenario_report(
            scenario_by_key("critical"),
            reference_campaign,
            n_resamples=120,
            seed=SEED,
        )

    def test_lead_metric_selected_for_scenario(self, critical_report):
        assert critical_report.lead_metric.symbol == "REC"
        assert critical_report.adequacy_of_lead > 0.8

    def test_verdicts_cover_suite_best_first(self, critical_report):
        assert len(critical_report.verdicts) == 8
        values = [v.lead_value for v in critical_report.verdicts]
        finite = [v for v in values if math.isfinite(v)]
        assert finite == sorted(finite, reverse=True)

    def test_recommendation_is_a_total_recall_tool(self, critical_report):
        assert critical_report.recommended_tool in {"SA-Grep", "SA-Flow"}

    def test_leader_p_value_is_one(self, critical_report):
        assert critical_report.verdicts[0].p_value_vs_leader == 1.0

    def test_contenders_start_with_leader(self, critical_report):
        assert critical_report.contenders[0] == critical_report.recommended_tool

    def test_field_cost_finite_for_informative_tools(self, critical_report):
        for verdict in critical_report.verdicts:
            assert math.isfinite(verdict.expected_field_cost), verdict.tool_name

    def test_render_contains_everything(self, critical_report):
        text = critical_report.render()
        assert "Recommendation" in text
        assert "Recall" in text
        assert "100:1" in text

    def test_scenarios_recommend_different_tools(self, reference_campaign):
        critical = build_scenario_report(
            scenario_by_key("critical"),
            reference_campaign,
            n_resamples=60,
            seed=SEED,
        )
        triage = build_scenario_report(
            scenario_by_key("triage"),
            reference_campaign,
            n_resamples=60,
            seed=SEED,
        )
        assert critical.recommended_tool != triage.recommended_tool

    def test_pinned_lead_metric_respected(self, reference_campaign):
        report = build_scenario_report(
            scenario_by_key("balanced"),
            reference_campaign,
            lead_metric=d.MCC,
            n_resamples=60,
            seed=SEED,
        )
        assert report.lead_metric is d.MCC

    def test_deterministic(self, reference_campaign):
        a = build_scenario_report(
            scenario_by_key("triage"),
            reference_campaign,
            n_resamples=60,
            seed=SEED,
        )
        b = build_scenario_report(
            scenario_by_key("triage"),
            reference_campaign,
            n_resamples=60,
            seed=SEED,
        )
        assert a.render() == b.render()


class TestR15Difficulty:
    @pytest.fixture(scope="class")
    def result(self):
        return r15_difficulty.run(seed=SEED, n_units=500)

    def test_grep_scanner_is_difficulty_blind(self, result):
        recalls = result.data["recalls"]["SA-Grep"]
        assert all(r == 1.0 for r in recalls if math.isfinite(r))

    def test_deep_analyzer_collapses_on_hard_sites(self, result):
        recalls = result.data["recalls"]["SA-Deep"]
        assert recalls[0] > 0.9
        assert recalls[-1] < 0.3

    def test_dynamic_tester_degrades(self, result):
        recalls = result.data["recalls"]["PT-Spider"]
        assert recalls[0] > recalls[-1]

    def test_every_bin_populated(self, result):
        assert all(size > 0 for size in result.data["bin_sizes"].values())

    def test_sections_render(self, result):
        assert "Recall vs site difficulty" in result.render()


class TestR16Stability:
    @pytest.fixture(scope="class")
    def result(self):
        return r16_stability.run(seed=SEED, n_replicas=6, n_pools=15, n_resamples=30)

    def test_critical_winner_is_unanimous(self, result):
        winners = result.data["analytical_winners"]["critical"]
        assert set(winners) == {"REC"}
        mcda = result.data["mcda_winners"]["critical"]
        assert max(mcda, key=mcda.get) == "REC"

    def test_mcda_conclusions_are_panel_stable(self, result):
        for key, share in result.data["modal_shares"]["mcda"].items():
            assert share >= 0.5, key

    def test_analytical_winners_stay_in_family(self, result):
        """Across seeds the analytical winner may move, but only inside the
        scenario-appropriate cluster."""
        triage_ok = {"PRE", "F0.5", "MRK", "SPC", "ACC", "KAP", "F1", "MCC", "JAC"}
        for winner in result.data["analytical_winners"]["triage"]:
            assert winner in triage_ok
        critical_ok = {"REC", "F2", "GM"}
        for winner in result.data["analytical_winners"]["critical"]:
            assert winner in critical_ok

    def test_counts_sum_to_replicas(self, result):
        n = result.data["n_replicas"]
        for counter in result.data["analytical_winners"].values():
            assert sum(counter.values()) == n
        for counter in result.data["mcda_winners"].values():
            assert sum(counter.values()) == n
