"""Cross-ecosystem campaign tests: cell threading, accumulator guards,
sharded runs under non-default ecosystems, resume, and the R20 experiment.
"""

from __future__ import annotations

import pytest

from repro.bench.engine.shards import run_sharded_campaign
from repro.bench.experiments import r20_ecosystems
from repro.bench.streaming import CampaignAccumulator, ShardCells, evaluate_shard
from repro.errors import ConfigurationError
from repro.tools.families import suite_for_ecosystem
from repro.workload.ecosystems import (
    DEFAULT_ECOSYSTEM,
    ecosystem_names,
    get_ecosystem,
)
from repro.workload.sharded import plan_shards

SEED = 2015


def _cells(index=0, ecosystem=DEFAULT_ECOSYSTEM):
    return ShardCells(
        shard_index=index,
        tool_names=("a", "b"),
        tp=(1, 2), fp=(1, 0), fn=(1, 0), tn=(2, 3),
        n_units=3, n_sites=5, n_vulnerable=2,
        ecosystem=ecosystem,
    )


class TestCellThreading:
    def test_cells_default_to_web_services(self):
        assert _cells().ecosystem == DEFAULT_ECOSYSTEM

    def test_evaluate_shard_carries_the_ecosystem(self):
        plan = plan_shards(
            scale=20, shard_size=20, seed=SEED, ecosystem="npm-deps"
        )
        tools = suite_for_ecosystem("npm-deps", seed=SEED)
        cells = evaluate_shard(tools, plan.columns(0), 0)
        assert cells.ecosystem == "npm-deps"

    def test_totals_carry_the_ecosystem(self):
        accumulator = CampaignAccumulator(["a", "b"], ecosystem="iac")
        accumulator.fold(_cells(ecosystem="iac"))
        assert accumulator.result().ecosystem == "iac"


class TestAccumulatorEcosystemGuards:
    def test_fold_rejects_foreign_ecosystem(self):
        accumulator = CampaignAccumulator(["a", "b"])
        with pytest.raises(ConfigurationError, match="ecosystem"):
            accumulator.fold(_cells(ecosystem="npm-deps"))

    def test_merge_rejects_mismatched_ecosystems(self):
        left = CampaignAccumulator(["a", "b"], ecosystem="iac")
        left.fold(_cells(0, ecosystem="iac"))
        right = CampaignAccumulator(["a", "b"], ecosystem="android")
        right.fold(_cells(1, ecosystem="android"))
        with pytest.raises(ConfigurationError, match="ecosystem"):
            left.merge(right)


class TestShardedEcosystemRuns:
    def test_default_run_is_the_historical_run(self):
        explicit = run_sharded_campaign(
            scale=60, shard_size=30, seed=SEED, ecosystem=DEFAULT_ECOSYSTEM
        )
        implicit = run_sharded_campaign(scale=60, shard_size=30, seed=SEED)
        assert explicit.totals.confusions == implicit.totals.confusions
        assert explicit.totals.tool_names == implicit.totals.tool_names
        assert implicit.totals.ecosystem == DEFAULT_ECOSYSTEM
        assert implicit.manifest.to_dict()["ecosystem"] == DEFAULT_ECOSYSTEM

    def test_non_default_run_uses_the_profile_suite(self):
        run = run_sharded_campaign(
            scale=50, shard_size=25, seed=7, ecosystem="npm-deps"
        )
        assert run.ok
        expected = tuple(
            tool.name for tool in suite_for_ecosystem("npm-deps", seed=7)
        )
        assert run.totals.tool_names == expected
        assert run.totals.ecosystem == "npm-deps"
        assert run.manifest.ecosystem == "npm-deps"
        assert run.manifest.tool_families == get_ecosystem(
            "npm-deps"
        ).tool_families

    def test_tool_families_restrict_the_suite(self):
        run = run_sharded_campaign(
            scale=40, shard_size=20, seed=7,
            ecosystem="npm-deps", tool_families=("sca",),
        )
        assert run.totals.tool_names == ("SCA-Lock",)
        assert run.manifest.tool_families == ("sca",)

    def test_unknown_ecosystem_or_family_fail_fast(self):
        with pytest.raises(ConfigurationError, match="unknown ecosystem"):
            run_sharded_campaign(scale=20, shard_size=10, ecosystem="bogus")
        with pytest.raises(ConfigurationError, match="unknown tool family"):
            run_sharded_campaign(
                scale=20, shard_size=10, tool_families=("nope",)
            )

    def test_parity_across_executors(self):
        thread = run_sharded_campaign(
            scale=50, shard_size=25, seed=7, ecosystem="iac", executor="thread"
        )
        process = run_sharded_campaign(
            scale=50, shard_size=25, seed=7, ecosystem="iac",
            jobs=2, executor="process",
        )
        assert thread.totals.confusions == process.totals.confusions

    def test_resume_restores_the_ecosystem(self, tmp_path):
        from repro.bench.engine.faults import tear_file

        wal = str(tmp_path / "android.wal")
        first = run_sharded_campaign(
            scale=60, shard_size=20, seed=7, ecosystem="android",
            tool_families=("sa", "dast"), wal_path=wal,
        )
        tear_file(wal, n_bytes=16)  # lose the last shard's record
        resumed = run_sharded_campaign(wal_path=wal)
        assert resumed.manifest.ecosystem == "android"
        assert resumed.manifest.tool_families == ("sa", "dast")
        assert resumed.manifest.extra["resume"]["carried"] == [0, 1]
        assert resumed.totals.ecosystem == "android"
        assert resumed.totals.tool_names == first.totals.tool_names
        assert resumed.totals.confusions == first.totals.confusions


class TestR20Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return r20_ecosystems.run(seed=SEED, n_units=400)

    def test_grid_covers_every_ecosystem(self, result):
        names = ecosystem_names()
        assert result.data["ecosystems"] == names
        for row in result.data["winners"].values():
            assert set(row) == set(names)

    def test_at_least_one_winner_flip(self, result):
        flips = result.data["flips"]
        assert len(flips) >= 1
        for flip in flips:
            assert flip["winner"] != flip["baseline"]
            assert flip["ecosystem"] != DEFAULT_ECOSYSTEM

    def test_sections_render(self, result):
        for key in ("ecosystems", "winner_grid", "shifts", "rankings"):
            assert result.sections[key].strip()

    def test_taus_are_within_range(self, result):
        for per_eco in result.data["taus"].values():
            for per_metric in per_eco.values():
                for value in per_metric.values():
                    assert -1.0 <= value <= 1.0 or value != value
