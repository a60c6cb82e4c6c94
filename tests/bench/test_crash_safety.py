"""Chaos tests for the crash-safe sharded campaign runner.

Every scenario here kills something — a worker (``os._exit`` mid-shard), the
campaign parent (SIGKILL between folds), or the run's patience (hung
workers, torn journals) — and asserts the recovery invariant: a recovered
campaign's totals are byte-identical to an uninterrupted run's
(architecture invariant 8).  In-process tests drive
:func:`run_sharded_campaign` directly; subprocess tests go through the CLI
so the signal handling and journal flushing are exercised end to end.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.engine import runner
from repro.bench.engine.faults import (
    ALWAYS,
    FaultPlan,
    FaultSpec,
    tear_file,
)
from repro.bench.engine.shards import run_sharded_campaign, shard_fault_id
from repro.bench.engine.supervise import ShutdownSignal
from repro.bench.engine.wal import JournalHeader, ShardJournal, replay_journal
from repro.errors import (
    ConfigurationError,
    EngineError,
    ExperimentTimeoutError,
    PersistError,
    WorkerCrashError,
)
from repro.obs import Observability

SEED = 2015
REPO_ROOT = Path(__file__).resolve().parents[2]


def clean_cells(scale: int = 400, shard_size: int = 100):
    """Per-shard cells arrays of an uninterrupted run (the parity target)."""
    run = run_sharded_campaign(scale=scale, shard_size=shard_size, seed=SEED)
    assert run.ok
    return [record.cells.to_array() for record in run.manifest.records]


@pytest.fixture(scope="module")
def reference_400():
    return clean_cells(400, 100)


@pytest.fixture(scope="module")
def reference_1600():
    return clean_cells(1600, 100)


def assert_parity(run, reference) -> None:
    recovered = {
        record.index: record.cells.to_array()
        for record in run.manifest.records
    }
    assert sorted(recovered) == list(range(len(reference)))
    for index, expected in enumerate(reference):
        np.testing.assert_array_equal(recovered[index], expected)


def kill_fault(index: int, attempts: int = 1) -> FaultPlan:
    return FaultPlan(
        (FaultSpec(shard_fault_id(index), kill_attempts=attempts),)
    )


class TestWorkerSupervision:
    def test_worker_kill_recovers_bit_identically(self, reference_400):
        obs = Observability()
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            jobs=2, executor="process",
            faults=kill_fault(2, attempts=1), obs=obs,
        )
        assert run.ok
        assert_parity(run, reference_400)
        counters = obs.metrics.counter_values("engine.")
        assert counters.get("engine.workers.crashed", 0) >= 1
        assert counters.get("engine.pool.rebuilds", 0) >= 1
        assert counters.get("engine.shards.redispatched", 0) >= 1

    def test_persistent_killer_quarantined_under_keep_going(self):
        obs = Observability()
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            jobs=2, executor="process", keep_going=True,
            faults=kill_fault(2, attempts=ALWAYS), obs=obs,
        )
        statuses = {r.index: r.status for r in run.manifest.records}
        assert statuses[2] == "quarantined"
        assert all(
            status == "completed"
            for index, status in statuses.items()
            if index != 2
        )
        assert not run.manifest.ok
        quarantined = next(r for r in run.manifest.records if r.index == 2)
        assert quarantined.failure.error_type == "WorkerCrashError"
        assert obs.metrics.counter_values("engine.shards.").get(
            "engine.shards.quarantined"
        ) == 1

    def test_persistent_killer_aborts_without_keep_going(self):
        with pytest.raises(EngineError, match="quarantined") as excinfo:
            run_sharded_campaign(
                scale=400, shard_size=100, seed=SEED,
                jobs=2, executor="process",
                faults=kill_fault(2, attempts=ALWAYS),
            )
        assert isinstance(excinfo.value.__cause__, WorkerCrashError)

    def test_kill_fault_requires_process_executor(self):
        with pytest.raises(ConfigurationError, match="require executor"):
            run_sharded_campaign(
                scale=400, shard_size=100, seed=SEED,
                jobs=1, executor="thread",
                faults=kill_fault(2),
            )

    def test_pool_rebuild_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr(runner, "MAX_POOL_REBUILDS", 0)
        with pytest.raises(EngineError, match="rebuild"):
            run_sharded_campaign(
                scale=400, shard_size=100, seed=SEED,
                jobs=2, executor="process",
                faults=kill_fault(2, attempts=1),
            )


class TestWalCheckpointing:
    def test_wal_records_every_fold(self, tmp_path, reference_400):
        obs = Observability()
        wal = tmp_path / "run.wal"
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            wal_path=str(wal), obs=obs,
        )
        assert run.ok
        assert run.manifest.extra["wal"] == str(wal)
        replay = replay_journal(wal)
        assert not replay.torn
        assert sorted(replay.shard_indices) == [0, 1, 2, 3]
        by_index = {int(a[0]): a for a in replay.arrays}
        for index, expected in enumerate(reference_400):
            np.testing.assert_array_equal(by_index[index], expected)
        assert obs.metrics.counter_values("engine.wal.").get(
            "engine.wal.records"
        ) == 4

    def test_torn_journal_resumes_bit_identically(
        self, tmp_path, reference_400
    ):
        wal = tmp_path / "run.wal"
        run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED, wal_path=str(wal)
        )
        tear_file(wal, n_bytes=16)  # the parent died mid-append

        resumed = run_sharded_campaign(wal_path=str(wal))
        assert resumed.ok
        assert resumed.manifest.extra["resume"] == {
            "carried": [0, 1, 2],
            "source": "wal",
        }
        assert_parity(resumed, reference_400)
        final = replay_journal(wal)
        assert not final.torn
        assert sorted(final.shard_indices) == [0, 1, 2, 3]

    def test_complete_journal_reruns_nothing(self, tmp_path, reference_400):
        wal = tmp_path / "run.wal"
        run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED, wal_path=str(wal)
        )
        resumed = run_sharded_campaign(wal_path=str(wal))
        assert resumed.ok
        assert resumed.manifest.extra["resume"]["carried"] == [0, 1, 2, 3]
        assert_parity(resumed, reference_400)

    def test_journal_with_foreign_tools_rejected(self, tmp_path):
        wal = tmp_path / "foreign.wal"
        ShardJournal.create(
            wal,
            JournalHeader(
                seed=SEED, scale=400, shard_size=100,
                ecosystem="web-services", tool_names=("NotARealTool",),
            ),
        ).close()
        with pytest.raises(ConfigurationError, match="tool"):
            run_sharded_campaign(wal_path=str(wal))

    def test_same_command_twice_continues_the_journal(
        self, tmp_path, reference_400
    ):
        wal = tmp_path / "run.wal"
        obs = Observability()
        for run_obs in (Observability(), obs):
            run = run_sharded_campaign(
                scale=400, shard_size=100, seed=SEED, wal_path=str(wal),
                obs=run_obs,
            )
        assert run.ok
        assert run.manifest.extra["resume"] == {
            "carried": [0, 1, 2, 3],
            "source": "wal",
        }
        assert_parity(run, reference_400)
        counters = obs.metrics.counter_values("engine.shards.")
        assert counters["engine.shards.carried"] == 4
        assert counters.get("engine.shards.completed", 0) == 0
        final = replay_journal(wal)
        assert sorted(final.shard_indices) == [0, 1, 2, 3]
        assert final.duplicates == 0

    def test_journal_of_another_plan_is_refused_untouched(self, tmp_path):
        wal = tmp_path / "run.wal"
        run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED, wal_path=str(wal)
        )
        tear_file(wal, n_bytes=16)
        before = wal.read_bytes()
        with pytest.raises(ConfigurationError, match="records seed=2015"):
            run_sharded_campaign(
                scale=400, shard_size=100, seed=SEED + 1, wal_path=str(wal)
            )
        assert wal.read_bytes() == before

    def test_non_journal_file_is_refused_untouched(self, tmp_path):
        notes = tmp_path / "notes.json"
        run = run_sharded_campaign(scale=200, shard_size=100, seed=SEED)
        notes.write_text(json.dumps(run.manifest.to_dict()))
        before = notes.read_bytes()
        with pytest.raises(PersistError, match="not a shard journal"):
            run_sharded_campaign(
                scale=200, shard_size=100, seed=SEED, wal_path=str(notes)
            )
        assert notes.read_bytes() == before


class TestGracefulShutdown:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parent_stop_drains_and_resumes(
        self, executor, tmp_path, reference_1600
    ):
        wal = tmp_path / f"stop-{executor}.wal"
        jobs = 1 if executor == "thread" else 2
        run = run_sharded_campaign(
            scale=1600, shard_size=100, seed=SEED,
            jobs=jobs, executor=executor, wal_path=str(wal),
            faults=FaultPlan((FaultSpec("PARENT", stop_after=2),)),
        )
        assert run.interrupted
        info = run.manifest.extra["interrupted"]
        assert "injected" in info["reason"]
        assert len(run.manifest.records) < 16
        assert len(run.manifest.records) >= 2
        assert sorted(info["unfinished"]) == sorted(
            set(range(16)) - {r.index for r in run.manifest.records}
        )
        assert not run.manifest.ok

        resumed = run_sharded_campaign(
            wal_path=str(wal), jobs=jobs, executor=executor
        )
        assert resumed.ok
        assert not resumed.interrupted
        assert_parity(resumed, reference_1600)

    def test_pre_requested_shutdown_runs_nothing(self):
        shutdown = ShutdownSignal()
        shutdown.request("pre-emptied by the test")
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED, shutdown=shutdown
        )
        assert run.interrupted
        assert run.manifest.records == ()
        assert run.manifest.extra["interrupted"]["reason"] == (
            "pre-emptied by the test"
        )

    def test_shutdown_signal_first_reason_wins(self):
        shutdown = ShutdownSignal()
        assert not shutdown.requested
        shutdown.request("first")
        shutdown.request("second")
        assert shutdown.requested
        assert shutdown.reason == "first"


def hang_faults(seconds: float, *indices: int) -> FaultPlan:
    return FaultPlan(
        tuple(
            FaultSpec(shard_fault_id(index), hang_seconds=seconds)
            for index in indices
        )
    )


class TestShardDeadline:
    # Only processes take a timeout: a hung inline shard cannot be stopped.
    @pytest.mark.parametrize("executor", ["process"])
    def test_hung_shard_times_out_keep_going(self, executor):
        obs = Observability()
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            jobs=2, executor=executor, keep_going=True, timeout=0.75,
            faults=FaultPlan(
                (FaultSpec(shard_fault_id(1), hang_seconds=3.0),)
            ),
            obs=obs,
        )
        statuses = {r.index: r.status for r in run.manifest.records}
        assert statuses[1] == "timeout"
        assert all(
            status == "completed"
            for index, status in statuses.items()
            if index != 1
        )
        assert not run.manifest.ok
        hung = next(r for r in run.manifest.records if r.index == 1)
        assert hung.failure.error_type == "ExperimentTimeoutError"
        assert obs.metrics.counter_values("engine.shards.").get(
            "engine.shards.timeout"
        ) == 1

    def test_hung_shard_does_not_strand_the_queue(self):
        # At jobs=1 the hang wedges the only worker: the shards queued
        # behind it must still run, not be reaped unstarted.
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            jobs=1, keep_going=True, timeout=0.75,
            faults=FaultPlan(
                (FaultSpec(shard_fault_id(1), hang_seconds=3.0),)
            ),
        )
        statuses = {r.index: r.status for r in run.manifest.records}
        assert statuses == {
            0: "completed", 1: "timeout", 2: "completed", 3: "completed",
        }

    def test_hung_shard_fail_fast_raises(self):
        with pytest.raises(ExperimentTimeoutError):
            run_sharded_campaign(
                scale=400, shard_size=100, seed=SEED,
                jobs=2, executor="process", timeout=0.75,
                faults=FaultPlan(
                    (FaultSpec(shard_fault_id(1), hang_seconds=3.0),)
                ),
            )

    def test_fast_shards_unaffected_by_generous_timeout(self):
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            jobs=2, executor="process", timeout=30.0,
        )
        assert run.ok
        assert [r.status for r in run.manifest.records] == ["completed"] * 4

    def test_slow_shard_inside_its_budget_completes(self):
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            jobs=2, timeout=2.0, faults=hang_faults(0.3, 1),
        )
        assert run.ok
        slow = run.manifest.record_for(1)
        assert (slow.status, slow.attempts) == ("completed", 1)

    def test_deadline_relies_on_no_task_queueing_behind_busy_workers(self):
        # The deadline counts from submission, so under a timeout no more
        # tasks fly than there are free workers.  Six shards of 0.5s at
        # jobs=2 take about 1.5s in all; each one fits a 0.8s budget only
        # if it started when it was submitted.
        run = run_sharded_campaign(
            scale=600, shard_size=100, seed=SEED,
            jobs=2, keep_going=True, timeout=0.8,
            faults=hang_faults(0.5, *range(6)),
        )
        assert [r.status for r in run.manifest.records] == ["completed"] * 6

    def test_pool_rebuild_restores_the_window(self, monkeypatch):
        # Shard 0 wedges a worker past its deadline, which shrinks the
        # window to one; shard 6 then kills the other worker.  Evicting
        # the broken pool ends the wedged worker too, so every submission
        # to the rebuilt pool sees the full window, and teardown has no
        # wedged worker left to evict the healthy pool for.
        submissions, evictions = [], []
        submit, evict = runner.TaskRun._submit, runner.evict_process_pool

        def spy_submit(self, key, attempt):
            submissions.append((key, attempt, self.rebuilds, self.window))
            submit(self, key, attempt)

        def spy_evict(key):
            evictions.append(key)
            evict(key)

        monkeypatch.setattr(runner.TaskRun, "_submit", spy_submit)
        monkeypatch.setattr(runner, "evict_process_pool", spy_evict)
        faults = FaultPlan(
            (FaultSpec(shard_fault_id(0), hang_seconds=30.0),)
            + hang_faults(0.4, *range(1, 6)).faults
            + kill_fault(6).faults
        )
        run = run_sharded_campaign(
            scale=800, shard_size=100, seed=SEED,
            jobs=2, executor="process", keep_going=True, timeout=1.0,
            faults=faults,
        )
        statuses = {r.index: r.status for r in run.manifest.records}
        assert statuses == {0: "timeout", **{i: "completed" for i in range(1, 8)}}
        rebuilt = [entry for entry in submissions if entry[2] == 1]
        assert [(key, attempt) for key, attempt, _, _ in rebuilt] == [(6, 2), (7, 1)]
        assert all(window == 2 for *_, window in rebuilt)
        assert len(evictions) == 1

    def test_timed_out_shard_resumes_bit_identically(
        self, tmp_path, reference_400
    ):
        wal = tmp_path / "hung.wal"
        run = run_sharded_campaign(
            scale=400, shard_size=100, seed=SEED,
            jobs=2, keep_going=True, timeout=0.75,
            faults=hang_faults(3.0, 1), wal_path=str(wal),
        )
        assert run.manifest.record_for(1).status == "timeout"
        resumed = run_sharded_campaign(wal_path=str(wal))
        assert resumed.ok
        assert resumed.manifest.extra["resume"]["carried"] == [0, 2, 3]
        assert_parity(resumed, reference_400)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def wait_for_journal_records(wal: Path, minimum: int = 1) -> None:
    """Block until the journal holds ``minimum`` folded-shard records."""
    deadline = time.monotonic() + 20.0
    while time.monotonic() < deadline:
        if wal.exists():
            try:
                if len(replay_journal(wal).arrays) >= minimum:
                    return
            except Exception:
                pass  # mid-append; try again
        time.sleep(0.02)
    raise AssertionError(f"journal {wal} never reached {minimum} records")


def processes_holding(marker: str) -> list[int]:
    """Pids of live processes whose command line contains ``marker``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue  # exited while we looked
        if marker.encode() in cmdline and state != "Z":
            pids.append(int(entry.name))
    return pids


def wait_until_gone(marker: str, timeout: float = 10.0) -> list[int]:
    """Poll until no process holds ``marker``; the survivors at timeout."""
    deadline = time.monotonic() + timeout
    while True:
        survivors = processes_holding(marker)
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.1)


class TestCrashRecoveryEndToEnd:
    """CLI subprocesses killed for real, recovered via ``--resume``."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_sigkilled_parent_resumes_bit_identically(
        self, executor, tmp_path, reference_400
    ):
        wal = tmp_path / f"kill-{executor}.wal"
        jobs = "1" if executor == "thread" else "2"
        # No pipes here: a SIGKILL'd parent can leave orphaned pool workers
        # holding stdout/stderr open, which would wedge a capturing wait.
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "run",
                "--scale", "400", "--shard-size", "100",
                "--jobs", jobs, "--executor", executor, "--quiet",
                "--inject-fault", "PARENT:kill=2", "--wal", str(wal),
            ],
            env=cli_env(), cwd=REPO_ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        if sys.platform.startswith("linux"):
            # Pool workers fork with the parent's command line, WAL path
            # included; none may outlive the SIGKILLed parent.
            survivors = wait_until_gone(str(wal))
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
            assert survivors == [], "orphaned workers outlived their parent"
        replay = replay_journal(wal)
        assert len(replay.arrays) == 2, "exactly the pre-kill folds persist"

        resumed = run_sharded_campaign(wal_path=str(wal))
        assert resumed.ok
        assert resumed.manifest.extra["resume"]["source"] == "wal"
        assert_parity(resumed, reference_400)

    def test_sigterm_drains_flushes_and_resumes(
        self, tmp_path, reference_1600
    ):
        wal = tmp_path / "term.wal"
        manifest = tmp_path / "term.json"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "run",
                "--scale", "1600", "--shard-size", "100", "--quiet",
                "--inject-fault", "s0:hang=2.0",
                "--inject-fault", "s1:hang=2.0",
                "--wal", str(wal), "--manifest", str(manifest),
            ],
            env=cli_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            wait_for_journal_records(wal, minimum=1)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1, stderr[-500:]
        assert "interrupted" in stderr
        assert manifest.exists(), "drain must still write the manifest"

        resumed = run_sharded_campaign(wal_path=str(wal))
        assert resumed.ok
        assert_parity(resumed, reference_1600)
        carried = resumed.manifest.extra["resume"]["carried"]
        assert carried, "the drained shards must carry over"
        assert len(carried) < 16


class TestTimeoutEndToEnd:
    """``--timeout`` bounds a CLI run on either rail: a task that never
    returns is timed out, its worker is terminated, and the CLI exits."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["R1", "R4", "--jobs", "2", "--inject-fault", "R1:hang=30"],
            [
                "--scale", "400", "--shard-size", "100",
                "--executor", "process", "--inject-fault", "s1:hang=30",
            ],
        ],
        ids=["experiments", "shards"],
    )
    def test_hung_task_does_not_outlive_the_timeout(self, argv, tmp_path):
        # Pool workers fork with the parent's command line, so the
        # manifest path marks them too.
        manifest = tmp_path / "hung.json"
        stderr_path = tmp_path / "stderr.txt"
        started = time.monotonic()
        with stderr_path.open("w") as stderr:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "run", *argv,
                    "--timeout", "2", "--keep-going", "--quiet",
                    "--manifest", str(manifest),
                ],
                env=cli_env(), cwd=REPO_ROOT,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
            try:
                returncode = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        elapsed = time.monotonic() - started
        assert returncode == 1, stderr_path.read_text()[-500:]
        assert "timeout after 1 attempt" in stderr_path.read_text()
        assert elapsed < 15, (
            f"the CLI exited {elapsed:.1f}s after starting; the hang is 30s"
        )
        if sys.platform.startswith("linux"):
            survivors = wait_until_gone(str(manifest))
            for pid in survivors:
                os.kill(pid, signal.SIGKILL)
            assert survivors == [], "the hung worker outlived the run"
