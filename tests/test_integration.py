"""End-to-end integration tests: the full paper pipeline on small sizes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    AdequacyConfig,
    WorkloadConfig,
    canonical_scenarios,
    core_candidates,
    default_panel,
    generate_workload,
    rank_metrics_for_scenario,
    reference_suite,
    run_campaign,
    validate_scenario,
)
from repro.bench.experiments import r11_agreement
from repro.metrics import definitions as d
from repro.properties import AssessmentContext, build_properties_matrix


class TestFullPipeline:
    """Workload -> tools -> metrics -> properties -> scenarios -> MCDA."""

    def test_pipeline_reaches_a_recommendation(self):
        workload = generate_workload(
            WorkloadConfig(n_units=120, seed=55, name="pipeline")
        )
        campaign = run_campaign(reference_suite(seed=55), workload)
        assert len(campaign.results) == 8

        registry = core_candidates()
        context = AssessmentContext.default(seed=55, n_resamples=25)
        matrix = build_properties_matrix(registry, context=context)
        panel = default_panel(seed=55)

        recommendations = {}
        for scenario in canonical_scenarios():
            validation = validate_scenario(scenario, matrix, panel)
            assert validation.ahp.is_acceptably_consistent()
            recommendations[scenario.key] = validation.panel_best
        # Different scenarios recommend different metrics — the paper's thesis.
        assert len(set(recommendations.values())) >= 2

    def test_campaign_ranking_depends_on_metric_choice(self):
        workload = generate_workload(
            WorkloadConfig(n_units=200, seed=56, name="ranking")
        )
        campaign = run_campaign(reference_suite(seed=56), workload)
        by_recall = max(
            campaign.results, key=lambda r: d.RECALL.value_or_nan(r.confusion)
        ).tool_name
        by_precision = max(
            campaign.results, key=lambda r: d.PRECISION.value_or_nan(r.confusion)
        ).tool_name
        assert by_recall != by_precision

    def test_analytical_and_mcda_tell_the_same_story(self):
        result = r11_agreement.run(seed=77, n_pools=20, n_resamples=30)
        assert result.data["winner_in_top5"] >= 3

    def test_adequacy_study_runs_on_all_scenarios(self):
        registry = core_candidates()
        config = AdequacyConfig(n_pools=15, seed=60)
        for scenario in canonical_scenarios():
            ranked = rank_metrics_for_scenario(registry, scenario, config)
            assert len(ranked) == len(registry)


class TestDeterminism:
    """Same seeds, same results — end to end."""

    def test_r11_is_bit_reproducible(self):
        a = r11_agreement.run(seed=88, n_pools=10, n_resamples=20)
        b = r11_agreement.run(seed=88, n_pools=10, n_resamples=20)
        assert a.data["analytical"] == b.data["analytical"]
        assert a.data["mcda"] == b.data["mcda"]
        assert a.render() == b.render()

    def test_campaign_reports_are_reproducible(self):
        config = WorkloadConfig(n_units=80, seed=91, name="repro-check")
        workload_a = generate_workload(config)
        workload_b = generate_workload(config)
        campaign_a = run_campaign(reference_suite(seed=91), workload_a)
        campaign_b = run_campaign(reference_suite(seed=91), workload_b)
        for result_a, result_b in zip(campaign_a.results, campaign_b.results):
            assert result_a.tool_name == result_b.tool_name
            assert np.array_equal(result_a.scores, result_b.scores)
            assert result_a.confusion == result_b.confusion


class TestHeadlineConclusions:
    """The abstract's claims, as assertions."""

    @pytest.fixture(scope="class")
    def adequacy_rankings(self):
        registry = core_candidates()
        config = AdequacyConfig(n_pools=30, seed=70)
        return {
            scenario.key: [
                r.metric_symbol
                for r in rank_metrics_for_scenario(registry, scenario, config)
            ]
            for scenario in canonical_scenarios()
        }

    def test_precision_and_recall_are_adequate_in_some_scenarios(
        self, adequacy_rankings
    ):
        assert adequacy_rankings["critical"][0] == "REC"
        assert "PRE" in adequacy_rankings["triage"][:5] or adequacy_rankings[
            "triage"
        ][0] in {"F0.5", "MRK"}

    def test_other_scenarios_require_seldom_used_alternatives(self, adequacy_rankings):
        """The audit/balanced winners are metrics with low literature
        popularity — the paper's closing point."""
        from repro.metrics.registry import core_candidates as registry_factory

        registry = registry_factory()
        for key in ("balanced", "audit"):
            winner = registry.get(adequacy_rankings[key][0])
            assert winner.info.popularity < 0.5, (key, winner.symbol)
