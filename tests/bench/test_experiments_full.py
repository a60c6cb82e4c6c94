"""Tests for the heavier experiment drivers (R2, R7-R11).

Runs use reduced sizes; the assertions are the DESIGN.md shape expectations.
"""

from __future__ import annotations

import pytest

from repro._rng import derive_seed
from repro.bench.engine.context import RunContext
from repro.bench.experiments import (
    r2_properties,
    r7_discrimination,
    r8_scenarios,
    r9_ahp,
    r10_sensitivity,
    r11_agreement,
)
from repro.bench.experiments.r2_properties import screened_out
from repro.metrics.registry import core_candidates, default_registry
from repro.stats.bootstrap import bootstrap_metric

SEED = 99


@pytest.fixture(scope="module")
def r2_result():
    return r2_properties.run(seed=SEED, n_resamples=40)


@pytest.fixture(scope="module")
def r8_result():
    return r8_scenarios.run(seed=SEED, n_pools=25)


@pytest.fixture(scope="module")
def r9_result(r2_result):
    return r9_ahp.run(
        registry=core_candidates(),
        seed=SEED,
        properties_matrix=None,  # exercise the internal R2 path once
        n_resamples=40,
    )


class TestR2Properties:
    def test_matrix_covers_catalog(self, r2_result):
        matrix = r2_result.data["matrix"]
        assert set(matrix.metric_symbols) == set(default_registry().symbols)

    def test_unbounded_metrics_screened_out(self, r2_result):
        screened = set(r2_result.data["screened_out"])
        assert {"DOR", "LR+", "LR-", "LFT"} <= screened

    def test_core_candidates_survive_screening(self, r2_result):
        kept = set(r2_result.data["kept"])
        assert set(core_candidates().symbols) <= kept

    def test_screened_out_helper_consistent(self, r2_result):
        matrix = r2_result.data["matrix"]
        for symbol in matrix.metric_symbols:
            assert screened_out(matrix, symbol) == (
                symbol in set(r2_result.data["screened_out"])
            )

    def test_render_mentions_screening(self, r2_result):
        assert "screened out" in r2_result.render()


class TestR7Discrimination:
    @pytest.fixture(scope="class")
    def result(self):
        return r7_discrimination.run(seed=SEED, n_units=150, n_resamples=80)

    def test_separation_fractions_bounded(self, result):
        for fraction in result.data["separation"].values():
            assert 0.0 <= fraction <= 1.0

    def test_every_core_metric_assessed(self, result):
        assert set(result.data["separation"]) == set(core_candidates().symbols)

    def test_some_metric_discriminates(self, result):
        # On an eight-tool suite spanning the operating space, at least one
        # metric must separate most pairs.
        assert max(result.data["separation"].values()) > 0.5

    @pytest.mark.parametrize("seed", [7, 31])
    def test_batched_summaries_equal_the_per_pair_loop(self, monkeypatch, seed):
        batched = []
        batch = r7_discrimination.bootstrap_metric_batch

        def recording(metric, confusions, seeds, **kwargs):
            summaries = batch(metric, confusions, seeds, **kwargs)
            batched.append((metric, summaries))
            return summaries

        monkeypatch.setattr(r7_discrimination, "bootstrap_metric_batch", recording)
        context = RunContext(seed=seed)
        r7_discrimination.run(seed=seed, context=context)
        campaign = context.campaign(n_units=600, seed=seed)

        # One batched call per metric, each covering every tool.
        assert [metric.symbol for metric, _ in batched] == core_candidates().symbols
        for metric, summaries in batched:
            loop = [
                bootstrap_metric(
                    metric,
                    result.confusion,
                    n_resamples=200,
                    seed=derive_seed(seed, f"r7:{metric.symbol}:{result.tool_name}"),
                )
                for result in campaign.results
            ]
            assert list(map(repr, summaries)) == list(map(repr, loop))


class TestR8Scenarios:
    def test_rankings_per_scenario(self, r8_result):
        rankings = r8_result.data["rankings"]
        assert set(rankings) == {"critical", "triage", "balanced", "audit"}

    def test_critical_selects_recall(self, r8_result):
        assert r8_result.data["rankings"]["critical"][0] == "REC"

    def test_triage_selects_exactness_family(self, r8_result):
        # ACC qualifies here: with 2:1 costs, the cost ranking is close to
        # the error-count ranking, which is exactly what accuracy orders by.
        winner = r8_result.data["rankings"]["triage"][0]
        assert winner in {"PRE", "F0.5", "MRK", "SPC", "ACC", "KAP"}
        # Recall-family metrics must NOT win a triage scenario.
        assert winner not in {"REC", "F2"}

    def test_balanced_selects_a_composite(self, r8_result):
        winner = r8_result.data["rankings"]["balanced"][0]
        assert winner in {"F1", "MCC", "INF", "GM", "BAC", "JAC", "KAP", "F2"}

    def test_audit_winner_is_chance_corrected_or_composite(self, r8_result):
        winner = r8_result.data["rankings"]["audit"][0]
        assert winner in {"MCC", "INF", "MRK", "KAP", "BAC", "GM", "JAC", "F1", "F2"}

    def test_scenarios_pick_different_winners(self, r8_result):
        winners = {r[0] for r in r8_result.data["rankings"].values()}
        assert len(winners) >= 3

    def test_adequacy_values_bounded(self, r8_result):
        for per_metric in r8_result.data["adequacy"].values():
            for tau in per_metric.values():
                assert -1.0 <= tau <= 1.0


class TestR9Ahp:
    def test_consistency_acceptable_everywhere(self, r9_result):
        for key, cr in r9_result.data["consistency"].items():
            assert cr < 0.1, key

    def test_critical_panel_selects_recall(self, r9_result):
        assert r9_result.data["rankings"]["critical"][0] == "REC"

    def test_ahp_winner_confirmed_by_a_cross_check_method(self, r9_result):
        """Different MCDA methods legitimately disagree on exact rankings,
        but the AHP winner must appear in the top 3 of SAW or TOPSIS in
        every scenario."""
        winners = r9_result.data["method_winners"]
        for key, per_method in winners.items():
            confirmed = (
                per_method["ahp"] in per_method["saw_top3"]
                or per_method["ahp"] in per_method["topsis_top3"]
            )
            assert confirmed, (key, per_method)

    def test_expert_agreement_in_unit_interval(self, r9_result):
        for value in r9_result.data["agreement"].values():
            assert 0.0 <= value <= 1.0


class TestR10Sensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return r10_sensitivity.run(seed=SEED, n_resamples=40)

    def test_stability_bounded(self, result):
        for value in result.data["overall_stability"].values():
            assert 0.0 <= value <= 1.0

    def test_conclusions_mostly_stable(self, result):
        # The headline winners should survive most weight perturbations.
        assert min(result.data["overall_stability"].values()) > 0.5

    def test_reversal_factors_recorded_per_criterion(self, result):
        for key, factors in result.data["reversal_factors"].items():
            assert factors, key


class TestR11Agreement:
    @pytest.fixture(scope="class")
    def result(self):
        return r11_agreement.run(seed=SEED, n_pools=25, n_resamples=40)

    def test_headline_agreement(self, result):
        """The MCDA validation confirms the analytical selection."""
        assert result.data["winner_in_top5"] >= 3
        assert result.data["top1_matches"] >= 1

    def test_overlaps_bounded(self, result):
        for overlap in result.data["overlaps"].values():
            assert 0.0 <= overlap <= 1.0

    def test_tables_render(self, result):
        text = result.render()
        assert "Recommended benchmark metric" in text
        assert "critical" in text
