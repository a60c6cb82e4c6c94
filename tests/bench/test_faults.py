"""Fault-tolerance tests: injection harness, retries, skips, timeouts,
resume, and cache quarantine — exercised on both executors.

The deterministic fault harness (:mod:`repro.bench.engine.faults`) makes
every failure path reproducible: ``fail=K`` fails exactly the first K
attempts, ``hang=N`` sleeps long enough to trip a timeout, and
``corrupt_file`` rots an on-disk artifact.  Nothing here is timing- or
luck-dependent except the timeout tests, which use generous margins.
"""

from __future__ import annotations

import pytest

from repro.bench.engine.faults import (
    ALWAYS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    corrupt_file,
    parse_fault,
)
from repro.bench.engine.manifest import RunManifest
from repro.bench.engine.runner import check_policy
from repro.bench.engine.scheduler import run_experiments
from repro.errors import (
    ConfigurationError,
    EngineError,
    ExperimentFailedError,
    ExperimentTimeoutError,
)
from repro.obs import Observability

#: Executor/jobs combinations covering the inline path and the process
#: pool.
EXECUTION_MODES = [
    pytest.param("thread", 1, id="serial"),
    pytest.param("process", 2, id="process-pool"),
]

#: R1 is independent of R3; R4 depends on R3.  Failing R3 must leave R1
#: completed and R4 skipped.
TRIAD = ["R1", "R3", "R4"]


def fail_r3(attempts: int = ALWAYS) -> FaultPlan:
    return FaultPlan((FaultSpec("R3", fail_attempts=attempts),))


class TestParseFault:
    def test_bare_id_fails_every_attempt(self):
        spec = parse_fault("R4")
        assert spec.experiment_id == "R4"
        assert spec.fail_attempts == ALWAYS
        assert spec.hang_seconds == 0.0

    def test_lowercase_id_normalized(self):
        assert parse_fault("r4").experiment_id == "R4"

    def test_fail_clause(self):
        assert parse_fault("R4:fail=2").fail_attempts == 2

    def test_hang_clause_does_not_imply_failure(self):
        spec = parse_fault("R4:hang=1.5")
        assert spec.hang_seconds == 1.5
        assert spec.fail_attempts == 0

    def test_combined_clauses(self):
        spec = parse_fault("R4:fail=1:hang=0.2")
        assert (spec.fail_attempts, spec.hang_seconds) == (1, 0.2)

    def test_unknown_clause_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault clause"):
            parse_fault("R4:explode=1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_fault("R4:fail=lots")

    def test_empty_id_rejected(self):
        with pytest.raises(ConfigurationError, match="empty experiment id"):
            parse_fault(":fail=1")

    def test_kill_clause(self):
        spec = parse_fault("s2:kill=1")
        assert spec.experiment_id == "S2"
        assert spec.kill_attempts == 1
        assert spec.fail_attempts == 0

    def test_bare_kill_clause_kills_every_attempt(self):
        assert parse_fault("S2:kill=").kill_attempts == ALWAYS

    def test_parent_stop_clause(self):
        spec = parse_fault("parent:stop=2")
        assert spec.experiment_id == "PARENT"
        assert spec.stop_after == 2
        assert spec.kill_attempts == 0

    def test_negative_kill_and_stop_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("S1", kill_attempts=-1)
        with pytest.raises(ConfigurationError):
            FaultSpec("PARENT", stop_after=-1)


class TestFaultSpec:
    def test_fails_through_configured_attempt_then_succeeds(self):
        spec = FaultSpec("R1", fail_attempts=2)
        for attempt in (1, 2):
            with pytest.raises(InjectedFault):
                spec.apply(attempt)
        spec.apply(3)  # no raise

    def test_negative_fail_attempts_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("R1", fail_attempts=-1)

    def test_negative_hang_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec("R1", hang_seconds=-0.5)

    def test_spec_pickles(self):
        import pickle

        spec = FaultSpec("R1", fail_attempts=2, hang_seconds=0.1)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestFaultPlan:
    def test_duplicate_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate fault"):
            FaultPlan((FaultSpec("R1"), FaultSpec("R1", fail_attempts=1)))

    def test_untargeted_experiment_is_a_no_op(self):
        plan = fail_r3()
        plan.apply("R1", attempt=1)  # no raise
        assert plan.for_experiment("R1") is None

    def test_targeted_experiment_raises(self):
        with pytest.raises(InjectedFault):
            fail_r3().apply("R3", attempt=1)


class TestCorruptFile:
    def write(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text('{"schema": "x", "payload": [1, 2, 3]}')
        return path, path.read_bytes()

    def test_truncate_halves_the_file(self, tmp_path):
        path, original = self.write(tmp_path)
        corrupt_file(path, "truncate")
        assert path.read_bytes() == original[: len(original) // 2]

    def test_garbage_is_not_json(self, tmp_path):
        import json

        path, _ = self.write(tmp_path)
        corrupt_file(path, "garbage")
        with pytest.raises((json.JSONDecodeError, UnicodeDecodeError)):
            json.loads(path.read_text())

    def test_flip_changes_the_tail(self, tmp_path):
        path, original = self.write(tmp_path)
        corrupt_file(path, "flip")
        data = path.read_bytes()
        assert len(data) == len(original)
        assert data != original

    def test_unknown_mode_rejected(self, tmp_path):
        path, _ = self.write(tmp_path)
        with pytest.raises(ConfigurationError, match="unknown corruption"):
            corrupt_file(path, "zap")

    def test_tear_file_drops_exactly_the_tail(self, tmp_path):
        from repro.bench.engine.faults import tear_file

        path, original = self.write(tmp_path)
        tear_file(path, n_bytes=5)
        assert path.read_bytes() == original[:-5]

    def test_tear_file_beyond_length_empties_the_file(self, tmp_path):
        from repro.bench.engine.faults import tear_file

        path, original = self.write(tmp_path)
        tear_file(path, n_bytes=len(original) + 100)
        assert path.read_bytes() == b""

    def test_tear_file_requires_positive_bytes(self, tmp_path):
        from repro.bench.engine.faults import tear_file

        path, _ = self.write(tmp_path)
        with pytest.raises(ConfigurationError, match="n_bytes"):
            tear_file(path, n_bytes=0)


class TestErrorPolicy:
    """``check_policy`` validates the error policy before any work starts."""

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            check_policy(retries=-1)

    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            check_policy(timeout=0)


class TestKeepGoing:
    @pytest.mark.parametrize("executor,jobs", EXECUTION_MODES)
    def test_failure_is_isolated(self, executor, jobs):
        obs = Observability()
        run = run_experiments(
            TRIAD,
            seed=2015,
            jobs=jobs,
            executor=executor,
            keep_going=True,
            faults=fail_r3(),
            obs=obs,
        )
        assert not run.ok
        assert run.manifest.statuses == {
            "R1": "completed",
            "R3": "failed",
            "R4": "skipped",
        }
        assert sorted(run.results) == ["R1"]
        counters = obs.metrics.counter_values("engine.experiments.")
        assert counters["engine.experiments.completed"] == 1
        assert counters["engine.experiments.failed"] == 1
        assert counters["engine.experiments.skipped"] == 1

    def test_failure_record_is_structured(self):
        run = run_experiments(
            ["R3"], seed=2015, keep_going=True, faults=fail_r3()
        )
        record = run.manifest.record_for("R3")
        assert record.failure is not None
        assert record.failure.error_type == "InjectedFault"
        assert "injected fault: R3" in record.failure.message
        assert "InjectedFault" in record.failure.traceback
        assert record.failure.attempts == 1

    def test_skip_reason_names_the_failed_dependency(self):
        run = run_experiments(
            TRIAD, seed=2015, keep_going=True, faults=fail_r3()
        )
        record = run.manifest.record_for("R4")
        assert record.skip_reason == "dependency R3 failed"
        assert record.attempts == 0
        assert record.wall_seconds == 0.0

    def test_all_dependents_of_r3_cascade(self):
        ids = ["R1", "R3", "R4", "R5", "R7"]
        run = run_experiments(
            ids, seed=2015, jobs=2, keep_going=True, faults=fail_r3()
        )
        statuses = run.manifest.statuses
        assert statuses["R1"] == "completed"
        assert statuses["R3"] == "failed"
        assert all(statuses[k] == "skipped" for k in ("R4", "R5", "R7"))


class TestFailFast:
    @pytest.mark.parametrize("executor,jobs", EXECUTION_MODES)
    def test_raises_with_original_cause(self, executor, jobs):
        with pytest.raises(ExperimentFailedError) as exc_info:
            run_experiments(
                TRIAD, seed=2015, jobs=jobs, executor=executor,
                faults=fail_r3(),
            )
        assert "R3" in str(exc_info.value)
        assert isinstance(exc_info.value.__cause__, InjectedFault)

    def test_engine_error_base_catches_it(self):
        with pytest.raises(EngineError):
            run_experiments(["R3"], seed=2015, faults=fail_r3())


class TestRetries:
    @pytest.mark.parametrize("executor,jobs", EXECUTION_MODES)
    def test_retry_recovers_and_matches_clean_run(self, executor, jobs):
        clean = run_experiments(["R3"], seed=2015)
        retried = run_experiments(
            ["R3"],
            seed=2015,
            jobs=jobs,
            executor=executor,
            retries=1,
            faults=fail_r3(attempts=1),
        )
        assert retried.ok
        record = retried.manifest.record_for("R3")
        assert record.status == "completed"
        assert record.attempts == 2
        assert (
            retried.results["R3"].render() == clean.results["R3"].render()
        ), "retry must be bit-identical to a clean run at the same seed"

    def test_insufficient_retries_still_fail(self):
        run = run_experiments(
            ["R3"],
            seed=2015,
            keep_going=True,
            retries=1,
            faults=fail_r3(attempts=2),
        )
        record = run.manifest.record_for("R3")
        assert record.status == "failed"
        assert record.attempts == 2
        assert record.failure is not None and record.failure.attempts == 2

    def test_retried_counter(self):
        obs = Observability()
        run_experiments(
            ["R3"],
            seed=2015,
            retries=2,
            faults=fail_r3(attempts=2),
            obs=obs,
        )
        counters = obs.metrics.counter_values("engine.experiments.")
        assert counters["engine.experiments.retried"] == 2
        assert counters["engine.experiments.scheduled"] == 1


class TestTimeout:
    def test_hanging_experiment_times_out_keep_going(self):
        obs = Observability()
        # The timeout must comfortably exceed R3's real cost (~0.3s cold)
        # while the injected hang comfortably exceeds the timeout.
        run = run_experiments(
            ["R1", "R3", "R4"],
            seed=2015,
            jobs=2,
            keep_going=True,
            timeout=2.0,
            faults=FaultPlan((FaultSpec("R1", hang_seconds=6.0),)),
            obs=obs,
        )
        statuses = run.manifest.statuses
        assert statuses["R1"] == "timeout"
        assert statuses["R3"] == "completed"
        assert statuses["R4"] == "completed"
        record = run.manifest.record_for("R1")
        assert record.failure is not None
        assert record.failure.error_type == "ExperimentTimeoutError"
        counters = obs.metrics.counter_values("engine.experiments.")
        assert counters["engine.experiments.timeout"] == 1

    def test_timeouts_are_never_retried(self):
        run = run_experiments(
            ["R1"],
            seed=2015,
            jobs=2,
            keep_going=True,
            retries=3,
            timeout=0.2,
            faults=FaultPlan((FaultSpec("R1", hang_seconds=2.0),)),
        )
        assert run.manifest.record_for("R1").attempts == 1

    def test_timeout_fail_fast_raises(self):
        with pytest.raises(ExperimentTimeoutError, match="R1"):
            run_experiments(
                ["R1"],
                seed=2015,
                jobs=2,
                timeout=0.2,
                faults=FaultPlan((FaultSpec("R1", hang_seconds=2.0),)),
            )

    def test_fast_experiments_unaffected_by_generous_timeout(self):
        run = run_experiments(["R1"], seed=2015, jobs=2, timeout=120.0)
        assert run.ok

    def test_slow_experiment_inside_its_budget_completes(self):
        run = run_experiments(
            ["R1"],
            seed=2015,
            jobs=2,
            timeout=2.0,
            faults=FaultPlan((FaultSpec("R1", hang_seconds=0.3),)),
        )
        assert run.ok
        record = run.manifest.record_for("R1")
        assert (record.status, record.attempts) == ("completed", 1)

    # Only processes take a timeout: a hung inline task cannot be stopped.
    @pytest.mark.parametrize("executor", ["process"])
    def test_wedged_worker_does_not_strand_the_queue(self, executor):
        # At jobs=1 the hang wedges the only worker: the experiments
        # queued behind it must still run, not be reaped unstarted.
        run = run_experiments(
            TRIAD,
            seed=2015,
            jobs=1,
            executor=executor,
            keep_going=True,
            timeout=2.0,
            faults=FaultPlan((FaultSpec("R1", hang_seconds=6.0),)),
        )
        assert run.manifest.statuses == {
            "R1": "timeout",
            "R3": "completed",
            "R4": "completed",
        }


def kill_r3(attempts: int) -> FaultPlan:
    return FaultPlan((FaultSpec("R3", kill_attempts=attempts),))


class TestWorkerSupervision:
    def test_kill_fault_requires_process_executor(self):
        with pytest.raises(ConfigurationError, match="require executor"):
            run_experiments(TRIAD, seed=2015, jobs=1, faults=kill_r3(1))

    def test_worker_kill_recovers_bit_identically(self):
        clean = run_experiments(TRIAD, seed=2015)
        obs = Observability()
        run = run_experiments(
            TRIAD, seed=2015, jobs=2, executor="process",
            faults=kill_r3(1), obs=obs,
        )
        assert run.ok
        for key in TRIAD:
            assert run.results[key].render() == clean.results[key].render()
        assert obs.metrics.counter_values("engine.pool.")[
            "engine.pool.rebuilds"
        ] >= 1

    def test_persistent_killer_fails_and_skips_its_dependents(self):
        run = run_experiments(
            TRIAD, seed=2015, jobs=2, executor="process", keep_going=True,
            faults=kill_r3(ALWAYS),
        )
        assert run.manifest.statuses == {
            "R1": "completed",
            "R3": "failed",
            "R4": "skipped",
        }
        assert run.manifest.record_for("R3").failure.error_type == (
            "WorkerCrashError"
        )
        assert run.manifest.record_for("R4").skip_reason == (
            "dependency R3 failed"
        )
        assert sorted(run.results) == ["R1"]


class TestResume:
    @pytest.mark.parametrize("executor,jobs", EXECUTION_MODES)
    def test_resume_completes_the_remainder(self, executor, jobs, tmp_path):
        clean = run_experiments(TRIAD, seed=2015)
        partial = run_experiments(
            TRIAD,
            seed=2015,
            jobs=jobs,
            executor=executor,
            keep_going=True,
            faults=fail_r3(),
            cache_dir=str(tmp_path),
        )
        assert partial.manifest.incomplete_ids == ["R3", "R4"]

        # Round-trip the manifest through its JSON form, as the CLI does.
        manifest = RunManifest.from_dict(partial.manifest.to_dict())
        resumed = run_experiments(
            jobs=jobs,
            executor=executor,
            cache_dir=str(tmp_path),
            resume_from=manifest,
        )
        assert resumed.ok
        assert resumed.manifest.experiment_ids == TRIAD
        assert resumed.manifest.extra["resume"] == {"carried": ["R1"]}
        assert sorted(resumed.results) == ["R3", "R4"]
        for key in ("R3", "R4"):
            assert (
                resumed.results[key].render() == clean.results[key].render()
            ), "resumed run must be bit-identical to a fault-free run"

    def test_resume_uses_the_manifest_seed(self, tmp_path):
        partial = run_experiments(
            ["R3"], seed=7, keep_going=True, faults=fail_r3()
        )
        resumed = run_experiments(
            seed=999,  # ignored: the manifest's seed wins
            resume_from=RunManifest.from_dict(partial.manifest.to_dict()),
        )
        assert resumed.manifest.seed == 7
        assert resumed.manifest.record_for("R3").seed == 7

    def test_resume_of_a_complete_manifest_runs_nothing(self):
        clean = run_experiments(["R1"], seed=2015)
        resumed = run_experiments(resume_from=clean.manifest)
        assert resumed.ok
        assert resumed.results == {}
        assert resumed.manifest.extra["resume"] == {"carried": ["R1"]}


class TestCacheQuarantine:
    @pytest.mark.parametrize("mode", ["truncate", "garbage", "flip"])
    def test_corrupt_cache_file_is_quarantined_and_recomputed(
        self, tmp_path, mode
    ):
        cold = run_experiments(["R3"], seed=2015, cache_dir=str(tmp_path))
        cached = [
            p for p in tmp_path.iterdir() if p.name.startswith("campaign")
        ]
        assert cached, "R3 must persist its campaign artifact"
        corrupt_file(cached[0], mode)

        obs = Observability()
        warm = run_experiments(
            ["R3"], seed=2015, cache_dir=str(tmp_path), obs=obs
        )
        assert warm.ok
        assert (
            warm.results["R3"].render() == cold.results["R3"].render()
        ), "recomputed artifact must reproduce the original result"
        assert warm.manifest.cache_counts()["corrupt"] == 1
        counters = obs.metrics.counter_values("engine.cache.")
        assert counters["engine.cache.corrupt"] == 1
        quarantined = list(tmp_path.glob("*.corrupt"))
        assert len(quarantined) == 1
        # The store rewrote a good copy alongside the quarantined one.
        assert cached[0].exists()

    def test_quarantine_works_through_the_process_executor(self, tmp_path):
        run_experiments(
            ["R3"], seed=2015, jobs=2, executor="process",
            cache_dir=str(tmp_path),
        )
        cached = [
            p for p in tmp_path.iterdir() if p.name.startswith("campaign")
        ]
        corrupt_file(cached[0], "truncate")
        warm = run_experiments(
            ["R3"], seed=2015, jobs=2, executor="process",
            cache_dir=str(tmp_path),
        )
        assert warm.ok
        assert warm.manifest.cache_counts()["corrupt"] == 1
        assert list(tmp_path.glob("*.corrupt"))


class TestManifestFailureRoundTrip:
    def test_statuses_survive_serialization(self):
        run = run_experiments(
            TRIAD, seed=2015, keep_going=True, retries=1, faults=fail_r3()
        )
        rebuilt = RunManifest.from_dict(run.manifest.to_dict())
        assert rebuilt.statuses == run.manifest.statuses
        r3 = rebuilt.record_for("R3")
        assert r3.failure is not None
        assert r3.failure.error_type == "InjectedFault"
        assert r3.attempts == 2
        assert rebuilt.record_for("R4").skip_reason == "dependency R3 failed"
        assert rebuilt.status_counts() == run.manifest.status_counts()

    def test_legacy_v1_manifest_is_rejected(self):
        run = run_experiments(["R1"], seed=2015)
        payload = run.manifest.to_dict()
        payload["schema"] = "repro/run-manifest@1"
        with pytest.raises(ConfigurationError) as excinfo:
            RunManifest.from_dict(payload)
        assert str(excinfo.value) == (
            "expected schema 'repro/run-manifest@2', "
            "found 'repro/run-manifest@1'"
        )

    def test_invalid_status_rejected(self):
        run = run_experiments(["R1"], seed=2015)
        payload = run.manifest.to_dict()
        payload["experiments"][0]["status"] = "exploded"
        with pytest.raises(ConfigurationError, match="status"):
            RunManifest.from_dict(payload)
