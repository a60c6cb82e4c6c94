"""The service core: fair dispatch onto the engine, parity, graceful drain."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.bench.engine.shards import run_sharded_campaign
from repro.bench.engine.wal import replay_journal
from repro.errors import ConfigurationError, ServeError
from repro.persist import streaming_totals_to_dict
from repro.serve.queue import JobSpec
from repro.serve.service import CampaignService, ServiceConfig


def wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition never became true")


@pytest.fixture
def service(tmp_path):
    instance = CampaignService(ServiceConfig(state_dir=tmp_path / "state"))
    instance.start()
    yield instance
    instance.stop()


class TestExecution:
    def test_submitted_job_completes_with_engine_parity(self, service):
        record = service.submit(
            {"scale": 200, "shard_size": 100, "tenant": "t1"}
        )
        wait_until(
            lambda: service.queue.get(record.job_id).finished
        )
        final = service.queue.get(record.job_id)
        assert final.state == "completed", final.error
        status = service.job_status(record.job_id)
        assert status["shards"] == {"planned": 2, "completed": 2}
        payload = service.result(record.job_id)
        reference = run_sharded_campaign(scale=200, shard_size=100)
        assert payload["totals"] == streaming_totals_to_dict(reference.totals)
        # The journal is retired once the result is durable.
        assert not service.queue.wal_path(record.job_id).exists()

    def test_result_before_completion_is_a_conflict(self, tmp_path):
        # No dispatcher: the job stays queued forever.
        idle = CampaignService(ServiceConfig(state_dir=tmp_path / "idle"))
        record = idle.queue.submit(JobSpec(scale=100))
        with pytest.raises(ServeError, match="not ready") as info:
            idle.result(record.job_id)
        assert info.value.status == 409

    def test_executor_resolves_once_at_construction(self, tmp_path):
        config = ServiceConfig(state_dir=tmp_path / "s", jobs=2)
        assert CampaignService(config).executor == "process"
        assert CampaignService(
            ServiceConfig(state_dir=tmp_path / "s")
        ).executor == "thread"
        with pytest.raises(ConfigurationError, match="jobs=2 requires"):
            CampaignService(
                ServiceConfig(state_dir=tmp_path / "s", jobs=2, executor="thread")
            )

    def test_bad_submission_is_rejected_up_front(self, service):
        with pytest.raises(ServeError, match="ecosystem"):
            service.submit({"scale": 10, "ecosystem": "nope"})
        with pytest.raises(ServeError, match="priority"):
            service.submit({"scale": 10, "priority": "high"})

    def test_multiple_tenants_all_complete(self, service):
        records = [
            service.submit(
                {"scale": 100, "shard_size": 50, "tenant": f"t{n % 2}"}
            )
            for n in range(4)
        ]
        wait_until(
            lambda: all(
                service.queue.get(r.job_id).finished for r in records
            )
        )
        states = {service.queue.get(r.job_id).state for r in records}
        assert states == {"completed"}
        snap = service.queue.snapshot()
        assert snap["completed_units"] == {"t0": 200, "t1": 200}


class TestGracefulDrainAndResume:
    def test_stop_midway_resumes_bit_identically(self, tmp_path):
        state = tmp_path / "state"
        first = CampaignService(ServiceConfig(state_dir=state))
        first.start()
        record = first.submit({"scale": 4000, "shard_size": 100})
        wal = first.queue.wal_path(record.job_id)
        # Wait until real progress is journalled, then drain mid-campaign.
        wait_until(lambda: wal.exists() and _records_in(wal) >= 2)
        first.stop()
        interrupted = first.queue.get(record.job_id)
        assert interrupted.state == "running", "drained jobs stay running"
        folded = _records_in(wal)
        assert 2 <= folded < 40, "the drain stopped the campaign midway"

        second = CampaignService(ServiceConfig(state_dir=state))
        recovered = second.start()
        assert [r.job_id for r in recovered] == [record.job_id]
        try:
            wait_until(
                lambda: second.queue.get(record.job_id).finished
            )
            final = second.queue.get(record.job_id)
            assert final.state == "completed", final.error
            assert final.attempts == 2
            payload = second.result(record.job_id)
            reference = run_sharded_campaign(scale=4000, shard_size=100)
            assert payload["totals"] == streaming_totals_to_dict(
                reference.totals
            )
            resumed = second.obs.metrics.counter("serve.jobs.resumed").value
            assert resumed == 1
        finally:
            second.stop()


def _records_in(wal: Path) -> int:
    try:
        return len(replay_journal(wal).arrays)
    except Exception:
        return 0  # header still being written
