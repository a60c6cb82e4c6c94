"""Tests for the experiment engine: specs, artifact store, scheduler."""

from __future__ import annotations

import json

import pytest

from repro.bench.engine.artifacts import ArtifactCodec, ArtifactKey, ArtifactStore
from repro.bench.engine.context import (
    RunContext,
    UncacheableParameter,
    _canonical,
    campaign_codec,
    ensure_context,
)
from repro.bench.engine.manifest import MANIFEST_SCHEMA, RunManifest
from repro.bench.engine.scheduler import run_experiments, topological_order
from repro.bench.engine.spec import (
    ExperimentSpec,
    all_specs,
    experiment_ids,
    get_spec,
)
from repro.errors import ConfigurationError

ALL_IDS = [f"R{i}" for i in range(1, 21)]
#: A cheap slice of the suite covering shared artifacts and a diamond of
#: dependencies; used where running all twenty would be wasteful.
FAST_SUBSET = ["R1", "R3", "R4", "R5", "R6", "R12", "R13"]

CAMPAIGN_600 = "campaign:reference[n_units=600,seed=2015]"


def small_reference_campaign():
    """The reference suite scored on a 40-unit reference workload (seed 7)."""
    from repro.bench.campaign import run_campaign
    from repro.bench.experiments.r3_campaign import reference_workload
    from repro.tools.suite import reference_suite

    return run_campaign(
        reference_suite(seed=7), reference_workload(seed=7, n_units=40)
    )


class TestSpecRegistry:
    def test_every_experiment_has_a_spec(self):
        assert experiment_ids() == ALL_IDS

    def test_seedless_flags_match_the_old_cli_set(self):
        seedless = {s.experiment_id for s in all_specs() if s.seedless}
        assert seedless == {"R1", "R6"}

    def test_titles_and_artifacts_nonempty(self):
        for spec in all_specs():
            assert spec.title
            assert spec.artifact
            assert spec.list_line == f"{spec.title} ({spec.artifact})"

    def test_dependencies_are_known_experiments(self):
        known = set(experiment_ids())
        for spec in all_specs():
            assert set(spec.depends_on) <= known

    def test_get_spec_is_case_insensitive(self):
        assert get_spec("r11").experiment_id == "R11"

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_spec("R99")

    def test_self_dependency_rejected(self):
        with pytest.raises(ConfigurationError, match="depend on itself"):
            ExperimentSpec(
                experiment_id="RX",
                title="x",
                artifact="table",
                runner=lambda **kw: None,
                depends_on=("RX",),
            )

    def test_full_suite_orders_canonically(self):
        ordered = [s.experiment_id for s in topological_order(ALL_IDS)]
        assert ordered == ALL_IDS

    def test_dependencies_precede_dependents(self):
        ordered = [s.experiment_id for s in topological_order(["R11", "R9", "R8"])]
        assert ordered.index("R8") < ordered.index("R11")
        assert ordered.index("R9") < ordered.index("R11")

    def test_edges_outside_the_requested_set_are_ignored(self):
        ordered = [s.experiment_id for s in topological_order(["R5", "R4"])]
        assert ordered == ["R4", "R5"]

    def test_cycle_detected(self, monkeypatch):
        from repro.bench.engine import spec as spec_module

        def runner(**kwargs):  # pragma: no cover - never runs
            raise AssertionError

        a = ExperimentSpec("X1", "a", "table", runner, depends_on=("X2",))
        b = ExperimentSpec("X2", "b", "table", runner, depends_on=("X1",))
        monkeypatch.setitem(spec_module._REGISTRY, "X1", a)
        monkeypatch.setitem(spec_module._REGISTRY, "X2", b)
        with pytest.raises(ConfigurationError, match="cycle"):
            topological_order(["X1", "X2"])


class TestCanonicalKeys:
    def test_scalars_pass_through(self):
        assert _canonical(3) == 3
        assert _canonical("x") == "x"
        assert _canonical(None) is None

    def test_registry_keys_by_symbols(self):
        from repro.metrics.registry import core_candidates

        kind, symbols = _canonical(core_candidates())
        assert kind == "registry"
        assert symbols == tuple(core_candidates().symbols)

    def test_metric_keys_by_symbol(self):
        from repro.metrics import definitions

        assert _canonical(definitions.F1) == ("metric", definitions.F1.symbol)

    def test_scenario_keys_by_key(self):
        from repro.scenarios.scenarios import canonical_scenarios

        scenario = canonical_scenarios()[0]
        assert _canonical(scenario) == ("scenario", scenario.key)

    def test_expert_panel_is_uncacheable(self):
        from repro.experts.panel import default_panel

        with pytest.raises(UncacheableParameter):
            _canonical(default_panel(seed=1))

    def test_arbitrary_objects_are_uncacheable(self):
        with pytest.raises(UncacheableParameter):
            _canonical(object())


class TestArtifactStore:
    def key(self, **params) -> ArtifactKey:
        return ArtifactKey("thing", "t", tuple(sorted(params.items())))

    def test_computes_once_then_hits(self):
        store = ArtifactStore()
        calls = []
        for _ in range(3):
            value = store.get_or_compute(
                self.key(n=1), lambda: calls.append(1) or 42
            )
            assert value == 42
        assert len(calls) == 1
        assert store.counts()["miss"] == 1
        assert store.counts()["hit"] == 2

    def test_distinct_keys_compute_separately(self):
        store = ArtifactStore()
        assert store.get_or_compute(self.key(n=1), lambda: "a") == "a"
        assert store.get_or_compute(self.key(n=2), lambda: "b") == "b"
        assert store.counts()["miss"] == 2

    def test_events_attribute_to_requester(self):
        store = ArtifactStore()
        store.get_or_compute(self.key(n=1), lambda: 1, requester="R3")
        store.get_or_compute(self.key(n=1), lambda: 1, requester="R4")
        assert [e.status for e in store.events_for("R3")] == ["miss"]
        assert [e.status for e in store.events_for("R4")] == ["hit"]

    def test_record_uncached(self):
        store = ArtifactStore()
        store.record_uncached(self.key(), requester="R9")
        assert store.counts()["uncached"] == 1

    def test_disk_tier_round_trips_campaigns(self, tmp_path):
        codec = campaign_codec()
        key = ArtifactKey("campaign", "reference", (("n_units", 40), ("seed", 7)))
        compute_calls = []

        def compute():
            compute_calls.append(1)
            return small_reference_campaign()

        cold = ArtifactStore(cache_dir=tmp_path)
        first = cold.get_or_compute(key, compute, codec=codec)
        assert compute_calls == [1]
        assert (tmp_path / key.filename).exists()

        warm = ArtifactStore(cache_dir=tmp_path)
        second = warm.get_or_compute(key, compute, codec=codec)
        assert compute_calls == [1], "warm store must not recompute"
        assert warm.counts()["disk-hit"] == 1
        assert second == first

    def test_schema_mismatched_disk_payload_quarantined(self, tmp_path):
        # Pre-integrity-envelope (or plain wrong-schema) cache files are
        # quarantined and recomputed, not fatal.
        key = ArtifactKey("campaign", "reference", (("seed", 7),))
        path = tmp_path / key.filename
        path.write_text(
            json.dumps({"schema": "repro/campaign@99"}), encoding="utf-8"
        )
        store = ArtifactStore(cache_dir=tmp_path)
        value = store.get_or_compute(
            key, small_reference_campaign, codec=campaign_codec()
        )
        assert value == small_reference_campaign()
        assert path.with_name(path.name + ".corrupt").exists()
        assert store.counts()["corrupt"] == 1
        assert store.counts()["miss"] == 1

    def test_campaign_v1_entry_quarantined_once(self, tmp_path):
        # A campaign@1 entry (detection lists, no site columns) is schema
        # drift: quarantined and recomputed once, then replaced by @2.
        from repro.persist import save_cache_entry

        key = ArtifactKey("campaign", "reference", (("n_units", 40), ("seed", 7)))
        path = tmp_path / key.filename
        save_cache_entry(
            {"schema": "repro/campaign@1", "workload_name": "reference",
             "ecosystem": "web-services", "results": []},
            path,
        )
        first = ArtifactStore(cache_dir=tmp_path)
        value = first.get_or_compute(
            key, small_reference_campaign, codec=campaign_codec()
        )
        assert value == small_reference_campaign()
        assert first.counts()["corrupt"] == 1
        assert first.counts()["miss"] == 1
        assert path.with_name(path.name + ".corrupt").exists()

        second = ArtifactStore(cache_dir=tmp_path)
        again = second.get_or_compute(
            key, small_reference_campaign, codec=campaign_codec()
        )
        assert again == value
        assert second.counts()["disk-hit"] == 1
        assert second.counts()["corrupt"] == 0

    def test_no_codec_means_memory_only(self, tmp_path):
        store = ArtifactStore(cache_dir=tmp_path)
        store.get_or_compute(self.key(n=1), lambda: 1)
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_retention_cap_prunes_oldest(self, tmp_path):
        import os

        from repro.bench.engine.artifacts import CORRUPT_RETENTION_CAP

        # A cache dir already at the retention cap, oldest-first mtimes.
        for i in range(CORRUPT_RETENTION_CAP):
            stale = tmp_path / f"old-{i:02d}.json.corrupt"
            stale.write_text("x")
            os.utime(stale, (1_000_000 + i, 1_000_000 + i))
        key = ArtifactKey("campaign", "reference", (("seed", 7),))
        path = tmp_path / key.filename
        path.write_text(
            json.dumps({"schema": "repro/campaign@99"}), encoding="utf-8"
        )
        store = ArtifactStore(cache_dir=tmp_path)
        store.get_or_compute(
            key, small_reference_campaign, codec=campaign_codec()
        )
        corrupt = {p.name for p in tmp_path.glob("*.corrupt")}
        assert len(corrupt) == CORRUPT_RETENTION_CAP
        assert "old-00.json.corrupt" not in corrupt, "oldest must age out"
        assert path.name + ".corrupt" in corrupt, "newest must survive"
        counters = store.obs.metrics.counter_values("engine.cache.")
        assert counters.get("engine.cache.corrupt_pruned") == 1
        gauges = store.obs.metrics.gauge_values("engine.cache.")
        assert gauges.get("engine.cache.corrupt_files") == float(
            CORRUPT_RETENTION_CAP
        )


class TestCacheSemantics:
    def test_campaign_computed_once_across_r3_r4_r5(self):
        run = run_experiments(["R3", "R4", "R5"], seed=2015)
        counts = run.manifest.cache_counts(CAMPAIGN_600)
        assert counts["miss"] == 1
        assert counts["hit"] == 2

    def test_different_seed_is_a_different_artifact(self):
        store = ArtifactStore()
        run_experiments(["R4"], seed=1, store=store)
        run_experiments(["R4"], seed=2, store=store)
        campaign_events = [
            e for e in store.events if e.key.startswith("campaign:reference")
        ]
        assert [e.status for e in campaign_events] == ["miss", "miss"]

    def test_explicit_default_matches_implicit_default(self):
        ctx = RunContext(seed=2015)
        ctx.experiment("R4", seed=2015, n_units=600)
        ctx.experiment("R4", seed=2015)  # relies on cache_defaults
        experiment_events = [
            e for e in ctx.store.events if e.key.startswith("experiment:R4")
        ]
        assert [e.status for e in experiment_events] == ["miss", "hit"]

    def test_warm_store_reruns_for_free(self):
        store = ArtifactStore()
        cold = run_experiments(["R3", "R4"], seed=2015, store=store)
        warm = run_experiments(["R3", "R4"], seed=2015, store=store)
        assert warm.manifest.cache_counts()["miss"] == 0
        for key in ("R3", "R4"):
            assert warm.results[key].render() == cold.results[key].render()

    def test_cache_dir_persists_the_campaign_not_the_workload(self, tmp_path):
        # The reference campaign is scored from columns, so R3 and R12
        # never request the reference workload; only the scored campaign
        # reaches the disk tier.
        cold = run_experiments(("R3", "R12"), seed=2015, cache_dir=str(tmp_path))
        assert not [e for e in cold.store.events if e.key.startswith("workload:")]
        files = [path.name for path in tmp_path.iterdir()]
        assert len(files) == 1
        assert files[0].startswith("campaign-reference-")
        assert files[0].endswith(".json")
        counters = cold.store.obs.metrics.counter_values("engine.artifacts.")
        assert counters["engine.artifacts.persisted"] == 1

        warm = run_experiments(("R3", "R12"), seed=2015, cache_dir=str(tmp_path))
        campaign = [
            e.status for e in warm.store.events if e.key == CAMPAIGN_600
        ]
        workload = [
            e.status
            for e in warm.store.events
            if e.key == "workload:reference[n_units=600,seed=2015]"
        ]
        assert campaign == ["disk-hit", "hit"]
        assert workload == []
        assert warm.manifest.cache_counts("campaign:")["miss"] == 0
        for key in ("R3", "R12"):
            assert warm.results[key].render() == cold.results[key].render()

    def test_standalone_run_still_works_without_context(self):
        from repro.bench.experiments.r4_metric_values import run as run_r4

        result = run_r4(seed=2015)
        assert result.experiment_id == "R4"
        assert result.sections


class TestSchedulerParallel:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="jobs"):
            run_experiments(["R1"], jobs=0)

    def test_parallel_is_byte_identical_to_serial(self):
        serial = run_experiments(FAST_SUBSET, seed=2015, jobs=1)
        parallel = run_experiments(FAST_SUBSET, seed=2015, jobs=4)
        for key in FAST_SUBSET:
            assert serial.results[key].render() == parallel.results[key].render()

    def test_results_keyed_in_requested_order(self):
        requested = ["R5", "R3", "R1"]
        run = run_experiments(requested, seed=2015)
        assert list(run.results) == requested
        assert run.manifest.experiment_ids == requested


class TestProcessExecutor:
    def test_renders_match_thread_executor(self):
        thread = run_experiments(["R1", "R4"], seed=2015, executor="thread")
        process = run_experiments(
            ["R1", "R4"], seed=2015, jobs=2, executor="process"
        )
        for key in ("R1", "R4"):
            assert (
                thread.results[key].render() == process.results[key].render()
            )

    def test_invalid_executor_rejected(self):
        with pytest.raises(ConfigurationError, match="executor"):
            run_experiments(["R1"], executor="fiber")

    def test_profiling_requires_thread_executor(self, tmp_path):
        from repro.obs import Observability, Profiler

        obs = Observability(profiler=Profiler(tmp_path))
        with pytest.raises(ConfigurationError, match="thread executor"):
            run_experiments(["R1"], executor="process", obs=obs)

    def test_worker_metrics_merge_into_parent(self):
        from repro.bench.engine.transport import shutdown_cached_pools
        from repro.obs import Observability

        # Pools are cached across runs; start cold so worker-side cache
        # misses (and the compute they trigger) are guaranteed to happen.
        shutdown_cached_pools()
        obs = Observability()
        run_experiments(
            ["R1", "R4"], seed=2015, jobs=2, obs=obs, executor="process"
        )
        counters = obs.metrics.counter_values()
        # Scheduling is parent-side bookkeeping; cache traffic and the
        # experiment's own counters happened in the workers and arrive
        # only through the merged dumps.
        assert counters["engine.experiments.scheduled"] == 2
        assert counters["engine.experiments.completed"] == 2
        assert counters.get("engine.cache.miss", 0) >= 1
        assert counters.get("experiment.R4.units_processed", 0) > 0

    def test_worker_spans_stitch_into_parent_trace(self):
        from repro.obs import Observability, Tracer

        obs = Observability(tracer=Tracer(enabled=True))
        run_experiments(
            ["R1", "R4"], seed=2015, jobs=2, obs=obs, executor="process"
        )
        summary = obs.tracer.summary()
        assert "engine.run" in summary  # recorded by the parent
        assert "experiment.R1" in summary  # recorded in a worker
        assert "experiment.R4" in summary
        span_ids = [record.span_id for record in obs.tracer.spans]
        assert len(span_ids) == len(set(span_ids))  # remapped, no collisions

    def test_manifest_records_worker_artifacts(self):
        from repro.bench.engine.transport import shutdown_cached_pools

        shutdown_cached_pools()  # cold workers, so the miss is guaranteed
        run = run_experiments(["R4"], seed=2015, executor="process")
        record = run.manifest.record_for("R4")
        assert record.seed == 2015
        assert record.wall_seconds >= 0
        assert record.cache_counts["miss"] >= 1


class TestRunManifest:
    def run_once(self):
        return run_experiments(["R3", "R4"], seed=2015)

    def test_round_trips_through_json(self):
        manifest = self.run_once().manifest
        payload = json.loads(json.dumps(manifest.to_dict()))
        rebuilt = RunManifest.from_dict(payload)
        assert rebuilt.seed == manifest.seed
        assert rebuilt.experiment_ids == manifest.experiment_ids
        assert (
            rebuilt.record_for("R4").cache_counts
            == manifest.record_for("R4").cache_counts
        )

    def test_schema_tagged_and_checked(self):
        manifest = self.run_once().manifest
        payload = manifest.to_dict()
        assert payload["schema"] == MANIFEST_SCHEMA
        payload["schema"] = "repro/run-manifest@99"
        with pytest.raises(ConfigurationError, match="schema"):
            RunManifest.from_dict(payload)

    def test_records_carry_seed_and_wall_time(self):
        manifest = self.run_once().manifest
        record = manifest.record_for("R3")
        assert record.seed == 2015
        assert record.wall_seconds >= 0
        seedless = run_experiments(["R1"]).manifest.record_for("R1")
        assert seedless.seed is None

    def test_unknown_record_rejected(self):
        with pytest.raises(ConfigurationError, match="no record"):
            self.run_once().manifest.record_for("R9")

    def test_summary_line_mentions_jobs_and_seed(self):
        line = self.run_once().manifest.summary_line()
        assert "jobs=1" in line
        assert "seed=2015" in line


class TestEnsureContext:
    def test_passthrough(self):
        ctx = RunContext(seed=7)
        assert ensure_context(ctx, seed=99) is ctx

    def test_fresh_context_on_none(self):
        ctx = ensure_context(None, seed=7)
        assert ctx.seed == 7
        assert len(ctx.store) == 0

    def test_stream_seed_is_deterministic(self):
        from repro._rng import derive_seed

        ctx = RunContext(seed=7)
        assert ctx.stream_seed("x") == derive_seed(7, "x")


class TestObservabilityIntegration:
    """The metrics dump, the manifest and the trace describe the same run."""

    def run_traced(self):
        from repro.obs import Observability

        obs = Observability.enabled()
        run = run_experiments(FAST_SUBSET, seed=2015, obs=obs)
        return run, obs

    def test_cache_counters_equal_manifest_totals(self):
        run, obs = self.run_traced()
        totals = run.manifest.cache_counts()
        counters = obs.metrics.counter_values("engine.cache.")
        for status in ("hit", "miss", "disk-hit", "uncached"):
            name = f"engine.cache.{status.replace('-', '_')}"
            assert counters.get(name, 0) == totals[status], status

    def test_experiment_lifecycle_counters(self):
        run, obs = self.run_traced()
        counters = obs.metrics.counter_values("engine.experiments.")
        n = len(FAST_SUBSET)
        assert counters["engine.experiments.scheduled"] == n
        assert counters["engine.experiments.completed"] == n
        assert counters.get("engine.experiments.failed", 0) == 0
        assert obs.metrics.histogram("engine.experiment.seconds").count == n
        del run

    def test_spans_cover_the_taxonomy(self):
        run, obs = self.run_traced()
        names = {record.name for record in obs.tracer.spans}
        assert "engine.run" in names
        for key in FAST_SUBSET:
            assert f"experiment.{key}" in names
        assert "artifact.compute" in names
        assert "metric.compute" in names
        del run

    def test_reference_campaign_traces_decode_and_each_tool(self):
        from repro.obs import Observability
        from repro.tools.suite import reference_suite

        obs = Observability.enabled()
        run_experiments(("R3",), seed=2015, obs=obs)
        spans = obs.tracer.spans
        by_id = {record.span_id: record for record in spans}
        decode = [r for r in spans if r.name == "campaign.decode"]
        tools = [r for r in spans if r.name == "campaign.tool"]
        assert len(decode) == 1
        assert [dict(r.args)["tool"] for r in tools] == [
            tool.name for tool in reference_suite(seed=2015)
        ]
        for record in decode + tools:
            parent = by_id[record.parent_id]
            assert parent.name == "artifact.compute"
            assert dict(parent.args)["key"] == CAMPAIGN_600

    def test_experiment_spans_nest_under_engine_run(self):
        run, obs = self.run_traced()
        by_id = {record.span_id: record for record in obs.tracer.spans}
        roots = [r for r in obs.tracer.spans if r.name == "engine.run"]
        assert len(roots) == 1
        for record in obs.tracer.spans:
            if record.name.startswith("experiment."):
                assert by_id[record.parent_id].name == "engine.run"
        del run

    def test_manifest_embeds_the_span_summary_when_tracing(self):
        run, obs = self.run_traced()
        summary = run.manifest.observability["spans"]
        assert summary == obs.tracer.summary()
        assert summary["engine.run"]["count"] == 1
        untraced = run_experiments(["R1"], seed=2015)
        assert untraced.manifest.observability is None

    def test_units_processed_counters_recorded_per_experiment(self):
        run, obs = self.run_traced()
        counters = obs.metrics.counter_values("experiment.")
        for key in ("R3", "R4", "R5", "R13"):
            assert counters[f"experiment.{key}.units_processed"] > 0
        del run

    def test_default_run_keeps_metrics_but_no_spans(self):
        store = ArtifactStore()
        run = run_experiments(["R1"], seed=2015, store=store)
        assert len(store.obs.tracer) == 0
        assert store.obs.metrics.counter_values("engine.experiments.")[
            "engine.experiments.completed"
        ] == 1
        del run

    def test_profiler_wraps_each_experiment(self, tmp_path):
        from repro.obs import Observability, Profiler

        obs = Observability(profiler=Profiler(tmp_path))
        run_experiments(["R1", "R2"], seed=2015, obs=obs)
        assert {r.name for r in obs.profiler.reports} == {"R1", "R2"}
        assert (tmp_path / "r1.pstats").exists()
        assert (tmp_path / "r2.pstats").exists()


class TestArtifactCodecHelpers:
    def test_key_token_is_stable(self):
        key = ArtifactKey("campaign", "reference", (("n_units", 600), ("seed", 2015)))
        assert key.token == CAMPAIGN_600

    def test_filename_is_collision_safe(self):
        a = ArtifactKey("workload", "reference", (("seed", 1),))
        b = ArtifactKey("workload", "reference", (("seed", 2),))
        assert a.filename != b.filename
        assert a.filename.endswith(".json")

    def test_codec_is_a_pure_pair(self):
        codec = ArtifactCodec(to_dict=lambda v: {"v": v}, from_dict=lambda d: d["v"])
        assert codec.from_dict(codec.to_dict(5)) == 5
