"""Streaming campaign tests: exact parity with the in-memory path, plus the
shard runner's fault-tolerance semantics (retry, keep-going, resume, cache).
"""

from __future__ import annotations

import pytest

from repro.bench.engine.faults import ALWAYS, FaultPlan, FaultSpec
from repro.bench.engine.shards import run_sharded_campaign, shard_fault_id
from repro.bench.streaming import (
    CampaignAccumulator,
    ShardCells,
    evaluate_shard,
    materialized_totals,
)
from repro.errors import ConfigurationError, ExperimentFailedError
from repro.metrics.registry import default_registry
from repro.tools.suite import reference_suite
from repro.workload.sharded import plan_shards

SEED = 2015  # the canonical reproduction seed (DEFAULT_SEED)


def reference_totals(scale: int, shard_size: int, seed: int):
    """The in-memory reference path for one (seed, scale, shard_size)."""
    plan = plan_shards(scale=scale, shard_size=shard_size, seed=seed)
    return materialized_totals(reference_suite(seed=seed), plan)


class TestStreamingParity:
    @pytest.mark.parametrize(
        ("seed", "scale", "shard_size"),
        [
            (SEED, 120, 40),   # even split, canonical seed
            (SEED, 130, 50),   # shard size does not divide n
            (SEED, 90, 90),    # single shard
            (7, 110, 30),      # ragged, different seed
            (123, 64, 25),     # ragged, different seed again
        ],
    )
    def test_fold_matches_materialized_bit_for_bit(
        self, seed, scale, shard_size
    ):
        plan = plan_shards(scale=scale, shard_size=shard_size, seed=seed)
        tools = reference_suite(seed=seed)
        accumulator = CampaignAccumulator([tool.name for tool in tools])
        for spec in plan:
            accumulator.fold(
                evaluate_shard(tools, plan.columns(spec.index), spec.index)
            )
        streaming = accumulator.result()
        reference = materialized_totals(tools, plan)
        assert streaming.confusions == reference.confusions
        assert streaming.n_units == reference.n_units == scale
        assert streaming.n_sites == reference.n_sites
        assert streaming.n_vulnerable == reference.n_vulnerable

    def test_fold_order_does_not_change_totals(self):
        plan = plan_shards(scale=120, shard_size=30, seed=SEED)
        tools = reference_suite(seed=SEED)
        cells = [
            evaluate_shard(tools, plan.columns(spec.index), spec.index)
            for spec in plan
        ]
        forward = CampaignAccumulator([tool.name for tool in tools])
        backward = CampaignAccumulator([tool.name for tool in tools])
        for item in cells:
            forward.fold(item)
        for item in reversed(cells):
            backward.fold(item)
        assert forward.result().confusions == backward.result().confusions

    def test_metric_values_match_scalar_campaign_semantics(self):
        streaming = run_sharded_campaign(
            scale=100, shard_size=40, seed=SEED
        ).totals
        reference = reference_totals(100, 40, SEED)
        for metric in list(default_registry())[:5]:
            assert streaming.metric_values(metric) == pytest.approx(
                reference.metric_values(metric), nan_ok=True
            )

    def test_runner_parity_across_jobs_and_executors(self):
        reference = reference_totals(130, 50, SEED)
        for kwargs in (
            {"jobs": 1},
            {"jobs": 3},
            {"jobs": 2, "executor": "process"},
        ):
            run = run_sharded_campaign(
                scale=130, shard_size=50, seed=SEED, **kwargs
            )
            assert run.ok
            assert run.totals.confusions == reference.confusions, kwargs


class TestTransportParity:
    """Crossing the process boundary changes wall clock, not cells."""

    def run_campaign(self, **kwargs):
        run = run_sharded_campaign(
            scale=130, shard_size=50, seed=SEED, **kwargs
        )
        assert run.ok
        return run

    def test_cells_identical_across_executor_and_transport(self):
        reference = self.run_campaign(executor="thread")
        run = self.run_campaign(jobs=2, executor="process")
        assert [r.cells for r in run.manifest.records] == [
            r.cells for r in reference.manifest.records
        ]

    def test_cells_array_round_trip(self):
        plan = plan_shards(scale=90, shard_size=45, seed=SEED)
        tools = reference_suite(seed=SEED)
        for spec in plan:
            cells = evaluate_shard(
                tools, plan.columns(spec.index), spec.index
            )
            rebuilt = ShardCells.from_array(
                cells.to_array(), cells.tool_names, ecosystem=cells.ecosystem
            )
            assert rebuilt == cells

    def test_warm_pool_reused_across_campaigns(self):
        from repro.bench.engine.transport import (
            cached_process_pool,
            shutdown_cached_pools,
        )

        shutdown_cached_pools()
        first = self.run_campaign(jobs=2, executor="process")
        # The campaign's pool stayed cached: fetching the same key returns
        # the same live executor instead of forking a fresh one.
        pool = cached_process_pool(("shards", SEED, None, "web-services"), 2)
        again = cached_process_pool(("shards", SEED, None, "web-services"), 2)
        assert pool is again
        second = self.run_campaign(jobs=2, executor="process")
        assert [r.cells for r in second.manifest.records] == [
            r.cells for r in first.manifest.records
        ]
        shutdown_cached_pools()


class TestAccumulatorGuards:
    def _cells(self, index=0):
        return ShardCells(
            shard_index=index,
            tool_names=("a", "b"),
            tp=(1, 2), fp=(1, 0), fn=(1, 0), tn=(2, 3),
            n_units=3, n_sites=5, n_vulnerable=2,
        )

    def test_double_fold_is_rejected(self):
        accumulator = CampaignAccumulator(["a", "b"])
        accumulator.fold(self._cells())
        with pytest.raises(ConfigurationError, match="already folded"):
            accumulator.fold(self._cells())

    def test_tool_suite_mismatch_is_rejected(self):
        accumulator = CampaignAccumulator(["x", "y"])
        with pytest.raises(ConfigurationError, match="accumulator expects"):
            accumulator.fold(self._cells())

    def test_empty_accumulator_cannot_finalize(self):
        with pytest.raises(ConfigurationError, match="no shards folded"):
            CampaignAccumulator(["a"]).result()

    def test_merge_combines_disjoint_shards(self):
        left = CampaignAccumulator(["a", "b"])
        right = CampaignAccumulator(["a", "b"])
        left.fold(self._cells(0))
        right.fold(self._cells(1))
        left.merge(right)
        totals = left.result()
        assert totals.n_units == 6
        assert sorted(totals.shard_indices) == [0, 1]

    def test_merge_rejects_overlapping_shards(self):
        left = CampaignAccumulator(["a", "b"])
        right = CampaignAccumulator(["a", "b"])
        left.fold(self._cells(0))
        right.fold(self._cells(0))
        with pytest.raises(ConfigurationError, match="both accumulators"):
            left.merge(right)

    def test_inconsistent_cells_are_rejected_on_construction(self):
        with pytest.raises(ConfigurationError, match="n_sites"):
            ShardCells(
                shard_index=0, tool_names=("a",),
                tp=(1,), fp=(1,), fn=(1,), tn=(1,),
                n_units=2, n_sites=5, n_vulnerable=2,
            )


class TestShardFaultTolerance:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_failed_shard_retries_without_changing_totals(self, executor):
        reference = reference_totals(130, 50, SEED)
        faults = FaultPlan(
            (FaultSpec(experiment_id=shard_fault_id(1), fail_attempts=1),)
        )
        run = run_sharded_campaign(
            scale=130, shard_size=50, seed=SEED, retries=1, faults=faults,
            jobs=1 if executor == "thread" else 2, executor=executor,
        )
        assert run.ok
        assert run.manifest.record_for(1).attempts == 2
        assert run.totals.confusions == reference.confusions

    def test_terminal_failure_without_keep_going_aborts(self):
        faults = FaultPlan(
            (FaultSpec(experiment_id=shard_fault_id(0), fail_attempts=ALWAYS),)
        )
        with pytest.raises(ExperimentFailedError, match="shard 0"):
            run_sharded_campaign(
                scale=60, shard_size=30, seed=SEED, faults=faults
            )

    def test_keep_going_records_failure_and_finishes_the_rest(self):
        faults = FaultPlan(
            (FaultSpec(experiment_id=shard_fault_id(1), fail_attempts=ALWAYS),)
        )
        run = run_sharded_campaign(
            scale=130, shard_size=50, seed=SEED, keep_going=True, faults=faults
        )
        assert not run.ok
        assert [r.index for r in run.manifest.records if not r.completed] == [1]
        record = run.manifest.record_for(1)
        assert record.failure.error_type == "InjectedFault"
        assert run.totals.n_units == 80  # shards 0 and 2 still folded

    def test_resume_refolds_carried_cells_and_matches_clean_run(
        self, tmp_path
    ):
        reference = reference_totals(130, 50, SEED)
        faults = FaultPlan(
            (FaultSpec(experiment_id=shard_fault_id(1), fail_attempts=ALWAYS),)
        )
        wal = str(tmp_path / "run.wal")
        partial = run_sharded_campaign(
            scale=130, shard_size=50, seed=SEED, keep_going=True,
            faults=faults, wal_path=wal,
        )
        resumed = run_sharded_campaign(
            scale=130, shard_size=50, seed=SEED, wal_path=wal
        )
        assert resumed.ok
        assert resumed.manifest.extra["resume"] == {
            "carried": [0, 2],
            "source": "wal",
        }
        assert resumed.totals.confusions == reference.confusions
        # Carried records fold the journaled cells verbatim.
        for index in (0, 2):
            assert (
                resumed.manifest.record_for(index).cells
                == partial.manifest.record_for(index).cells
            )

    def test_cells_cache_warm_run_skips_evaluation(self, tmp_path):
        from repro.obs import Observability

        cold = run_sharded_campaign(
            scale=90, shard_size=30, seed=SEED, cache_dir=str(tmp_path)
        )
        obs = Observability()
        warm = run_sharded_campaign(
            scale=90, shard_size=30, seed=SEED, cache_dir=str(tmp_path),
            obs=obs,
        )
        assert cold.totals.confusions == warm.totals.confusions
        counters = obs.metrics.counter_values("engine.cache.")
        assert counters["engine.cache.disk_hit"] == 3
        assert counters.get("engine.cache.miss", 0) == 0

    def test_shard_counters_and_spans_are_recorded(self):
        from repro.obs import Observability, Tracer

        obs = Observability(tracer=Tracer(enabled=True))
        run = run_sharded_campaign(
            scale=90, shard_size=30, seed=SEED, obs=obs
        )
        assert run.ok
        counters = obs.metrics.to_dict()["counters"]
        assert counters["engine.shards.scheduled"] == 3
        assert counters["engine.shards.completed"] == 3
        assert counters["engine.shards.units"] == 90
        spans = obs.tracer.spans
        names = {span.name for span in spans}
        assert {"engine.shard_run", "shard.generate", "shard.evaluate"} <= names
        # One shard.tool span per (shard, tool), nested in shard.evaluate.
        evaluate_ids = {
            span.span_id for span in spans if span.name == "shard.evaluate"
        }
        tool_spans = [span for span in spans if span.name == "shard.tool"]
        assert all(span.parent_id in evaluate_ids for span in tool_spans)
        keys = sorted(
            (dict(span.args)["shard"], dict(span.args)["tool"])
            for span in tool_spans
        )
        tool_names = [tool.name for tool in reference_suite(seed=SEED)]
        assert keys == sorted(
            (shard, tool) for shard in range(3) for tool in tool_names
        )
