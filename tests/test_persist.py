"""Tests for JSON persistence of benchmark artifacts."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArtifactCorruptError, ConfigurationError, PersistError
from repro.persist import (
    CACHE_ENTRY_SCHEMA,
    campaign_from_dict,
    campaign_to_dict,
    load_cache_entry,
    load_json,
    payload_digest,
    report_from_dict,
    report_to_dict,
    save_cache_entry,
    save_json,
    workload_from_dict,
    workload_to_dict,
)
from repro.workload.generator import WorkloadConfig, generate_workload
from repro.workload.corpus import corpus_workload


class TestWorkloadRoundTrip:
    def test_generated_workload(self, small_workload):
        rebuilt = workload_from_dict(workload_to_dict(small_workload))
        assert rebuilt.name == small_workload.name
        assert rebuilt.units == small_workload.units
        assert rebuilt.truth == small_workload.truth
        assert rebuilt.profiles == small_workload.profiles
        assert rebuilt.config == small_workload.config

    def test_corpus_workload(self):
        corpus = corpus_workload()
        rebuilt = workload_from_dict(workload_to_dict(corpus))
        assert rebuilt.truth == corpus.truth
        assert rebuilt.units == corpus.units

    def test_schema_mismatch_rejected(self, small_workload):
        payload = workload_to_dict(small_workload)
        payload["schema"] = "repro/workload@99"
        with pytest.raises(ConfigurationError, match="schema"):
            workload_from_dict(payload)

    def test_payload_is_json_safe(self, small_workload):
        json.dumps(workload_to_dict(small_workload))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), n_units=st.integers(5, 40))
    def test_any_generated_workload_round_trips(self, seed, n_units):
        workload = generate_workload(WorkloadConfig(n_units=n_units, seed=seed))
        rebuilt = workload_from_dict(workload_to_dict(workload))
        assert rebuilt == workload


def suite_report(workload):
    """The first reference-suite tool's report on ``workload``."""
    from repro.tools.suite import reference_suite

    return reference_suite(seed=101)[0].analyze(workload)


class TestReportAndCampaignRoundTrip:
    def test_report(self, small_workload):
        report = suite_report(small_workload)
        rebuilt = report_from_dict(report_to_dict(report))
        assert rebuilt == report

    def test_campaign(self, reference_campaign):
        rebuilt = campaign_from_dict(campaign_to_dict(reference_campaign))
        assert rebuilt == reference_campaign
        for before, after in zip(reference_campaign.results, rebuilt.results):
            assert np.array_equal(after.scores, before.scores)
            assert after.confusion == before.confusion
        assert np.array_equal(rebuilt.vulnerable, reference_campaign.vulnerable)
        assert np.array_equal(rebuilt.vuln_types, reference_campaign.vuln_types)

    def test_campaign_payload_is_site_columns(self, reference_campaign):
        payload = campaign_to_dict(reference_campaign)
        assert payload["schema"] == "repro/campaign@2"
        assert len(payload["vuln_types"]) == reference_campaign.n_sites
        assert payload["vulnerable"] == np.flatnonzero(
            reference_campaign.vulnerable
        ).tolist()
        for entry, result in zip(payload["results"], reference_campaign.results):
            assert entry["flagged"] == np.flatnonzero(result.flags).tolist()
            assert entry["confidence"] == result.scores[result.flags].tolist()

    def test_malformed_site_columns_rejected(self, reference_campaign):
        for mutate in (
            lambda p: p["results"][0]["flagged"].append(10**6),
            lambda p: p["results"][0]["confidence"].pop(),
            lambda p: p["results"][0]["confidence"].__setitem__(0, 1.5),
            lambda p: p["vulnerable"].reverse(),
            lambda p: p["vuln_types"].__setitem__(0, 99),
        ):
            payload = campaign_to_dict(reference_campaign)
            mutate(payload)
            with pytest.raises(ConfigurationError):
                campaign_from_dict(payload)

    def test_campaign_reanalysis_after_round_trip(
        self, reference_campaign, small_workload
    ):
        """The archived campaign supports the same downstream analyses."""
        from repro.bench.pertype import campaign_breakdowns
        from repro.metrics import definitions as d

        rebuilt = campaign_from_dict(campaign_to_dict(reference_campaign))
        assert rebuilt.metric_values(d.MCC) == reference_campaign.metric_values(d.MCC)
        breakdowns = campaign_breakdowns(rebuilt)
        assert set(breakdowns) == set(rebuilt.tool_names)
        assert breakdowns == campaign_breakdowns(reference_campaign)

    def test_report_schema_checked(self, small_workload):
        payload = report_to_dict(suite_report(small_workload))
        payload["schema"] = "nope"
        with pytest.raises(ConfigurationError):
            report_from_dict(payload)

    def test_campaign_schema_checked(self, reference_campaign):
        payload = campaign_to_dict(reference_campaign)
        del payload["schema"]
        with pytest.raises(ConfigurationError):
            campaign_from_dict(payload)


class TestFiles:
    def test_save_and_load(self, tmp_path, reference_campaign):
        path = tmp_path / "campaign.json"
        save_json(campaign_to_dict(reference_campaign), path)
        rebuilt = campaign_from_dict(load_json(path))
        assert rebuilt == reference_campaign

    def test_save_is_stable(self, tmp_path, small_workload):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_json(workload_to_dict(small_workload), a)
        save_json(workload_to_dict(small_workload), b)
        assert a.read_text() == b.read_text()


class TestCorruptFiles:
    def test_truncated_json_raises_persist_error_with_path(self, tmp_path):
        path = tmp_path / "truncated.json"
        save_json({"a": list(range(100))}, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistError, match="truncated.json") as exc_info:
            load_json(path)
        assert exc_info.value.path == str(path)

    def test_garbage_json_raises_persist_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_bytes(b"not json {{{ \x00\xff")
        with pytest.raises(PersistError, match="corrupt JSON"):
            load_json(path)

    def test_persist_error_is_catchable_as_repro_error(self, tmp_path):
        from repro.errors import ReproError

        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ReproError):
            load_json(path)


class TestAtomicSave:
    def test_failed_serialization_leaves_existing_file_intact(self, tmp_path):
        path = tmp_path / "keep.json"
        save_json({"version": 1}, path)
        with pytest.raises(TypeError):
            save_json({"bad": object()}, path)
        assert load_json(path) == {"version": 1}

    def test_no_tmp_residue_after_save(self, tmp_path):
        path = tmp_path / "clean.json"
        save_json({"ok": True}, path)
        assert [p.name for p in tmp_path.iterdir()] == ["clean.json"]

    def test_no_tmp_residue_after_failed_save(self, tmp_path):
        with pytest.raises(TypeError):
            save_json({"bad": object()}, tmp_path / "never.json")
        assert list(tmp_path.iterdir()) == []


class TestCacheEntryEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "entry.json"
        payload = {"schema": "repro/workload@1", "name": "w", "n": [1, 2, 3]}
        save_cache_entry(payload, path)
        assert load_cache_entry(path) == payload

    def test_digest_is_deterministic(self):
        payload = {"b": 2, "a": 1}
        assert payload_digest(payload) == payload_digest({"a": 1, "b": 2})

    def test_tampered_payload_rejected(self, tmp_path):
        path = tmp_path / "entry.json"
        save_cache_entry({"value": 1}, path)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        envelope["payload"]["value"] = 2
        path.write_text(json.dumps(envelope), encoding="utf-8")
        with pytest.raises(ArtifactCorruptError, match="digest"):
            load_cache_entry(path)

    def test_raw_legacy_payload_rejected(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text(
            json.dumps({"schema": "repro/workload@1"}), encoding="utf-8"
        )
        with pytest.raises(ArtifactCorruptError, match="envelope"):
            load_cache_entry(path)

    def test_truncated_envelope_raises_persist_error(self, tmp_path):
        path = tmp_path / "entry.json"
        save_cache_entry({"value": 1}, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistError):
            load_cache_entry(path)

    def test_file_is_the_canonical_json_of_the_envelope(
        self, tmp_path, reference_campaign
    ):
        # The payload is encoded once; the bytes on disk must be exactly
        # what a canonical encode of the whole envelope would produce.
        payload = campaign_to_dict(reference_campaign)
        path = tmp_path / "entry.json"
        save_cache_entry(payload, path)
        envelope = {
            "schema": CACHE_ENTRY_SCHEMA,
            "sha256": payload_digest(payload),
            "payload": payload,
        }
        expected = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        assert path.read_text(encoding="utf-8") == expected + "\n"

    def test_indented_envelopes_of_older_writers_still_load(
        self, tmp_path, reference_campaign
    ):
        # Earlier releases wrote the same envelope through save_json
        # (indented); warm caches they left behind must stay warm.
        from repro.bench.engine.artifacts import ArtifactKey, ArtifactStore
        from repro.bench.engine.context import campaign_codec

        payload = campaign_to_dict(reference_campaign)
        envelope = {
            "schema": CACHE_ENTRY_SCHEMA,
            "sha256": payload_digest(payload),
            "payload": payload,
        }
        path = tmp_path / "entry.json"
        save_json(envelope, path)
        assert load_cache_entry(path) == payload

        key = ArtifactKey("campaign", "reference", (("seed", 101),))
        save_json(envelope, tmp_path / key.filename)
        computed = []
        store = ArtifactStore(cache_dir=tmp_path)
        value = store.get_or_compute(
            key, lambda: computed.append(1), codec=campaign_codec()
        )
        assert computed == []
        assert value == reference_campaign
        assert store.counts()["disk-hit"] == 1


class TestConcurrentWriters:
    def test_writers_of_one_path_never_collide(self, tmp_path):
        # More threads than cores and a short switch interval, so writers
        # interleave inside the write-then-replace window.
        path = tmp_path / "entry.json"
        writers = 2 * (os.cpu_count() or 1) + 2
        readers = 2
        deadline = time.monotonic() + 5.0
        start = threading.Barrier(writers + readers, timeout=30)
        done = threading.Event()
        errors: list[Exception] = []
        loaded: list[int] = []

        def write(k: int) -> None:
            try:
                start.wait()
                for i in range(100):
                    if time.monotonic() > deadline:
                        break
                    save_cache_entry(
                        {"writer": k, "i": i, "values": list(range(500))}, path
                    )
            except Exception as error:
                errors.append(error)

        def read() -> None:
            try:
                start.wait()
                while not done.is_set():
                    try:
                        payload = load_cache_entry(path)
                    except FileNotFoundError:
                        continue  # no writer has finished yet
                    loaded.append(payload["writer"])
            except Exception as error:
                errors.append(error)

        threads = [
            threading.Thread(target=write, args=(k,)) for k in range(writers)
        ] + [threading.Thread(target=read) for _ in range(readers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[:writers]:
                thread.join(timeout=60)
            done.set()
            for thread in threads[writers:]:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(previous)

        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert loaded, "readers must have seen complete entries"
        assert load_cache_entry(path)["values"] == list(range(500))
        assert list(tmp_path.glob("*.tmp.*")) == []


class TestExperimentResultRoundTrip:
    def make(self):
        from repro.bench.result import ExperimentResult

        return ExperimentResult(
            experiment_id="R5",
            title="Metric-induced tool rankings",
            sections={"rankings": "table text", "tau": "matrix text"},
            data={"taus": {"F1": 0.8}, "names": ["a", "b"], "n": 3},
        )

    def test_round_trip(self):
        from repro.persist import (
            experiment_result_from_dict,
            experiment_result_to_dict,
        )

        rebuilt = experiment_result_from_dict(
            experiment_result_to_dict(self.make())
        )
        original = self.make()
        assert rebuilt.experiment_id == original.experiment_id
        assert rebuilt.title == original.title
        assert rebuilt.sections == original.sections
        assert rebuilt.data == original.data
        assert rebuilt.render() == original.render()

    def test_payload_survives_json(self):
        from repro.persist import (
            experiment_result_from_dict,
            experiment_result_to_dict,
        )

        payload = json.loads(json.dumps(experiment_result_to_dict(self.make())))
        assert experiment_result_from_dict(payload).data == self.make().data

    def test_schema_tagged_and_checked(self):
        from repro.persist import (
            experiment_result_from_dict,
            experiment_result_to_dict,
        )

        payload = experiment_result_to_dict(self.make())
        assert payload["schema"] == "repro/experiment@1"
        payload["schema"] = "repro/experiment@99"
        with pytest.raises(ConfigurationError, match="schema"):
            experiment_result_from_dict(payload)

    def test_strict_rejects_non_json_data(self):
        from repro.bench.result import ExperimentResult
        from repro.persist import experiment_result_to_dict

        result = ExperimentResult(
            experiment_id="RX",
            title="x",
            data={"objects": object()},
        )
        with pytest.raises(ConfigurationError, match="JSON-safe"):
            experiment_result_to_dict(result)

    def test_lenient_omits_and_records_non_json_data(self):
        from repro.bench.result import ExperimentResult
        from repro.persist import (
            experiment_result_from_dict,
            experiment_result_to_dict,
        )

        result = ExperimentResult(
            experiment_id="RX",
            title="x",
            data={"ok": 1, "objects": object(), "tuple_keys": {(1, 2): "x"}},
        )
        payload = experiment_result_to_dict(result, strict=False)
        assert payload["data"] == {"ok": 1}
        assert sorted(payload["omitted_data_keys"]) == ["objects", "tuple_keys"]
        assert experiment_result_from_dict(payload).data == {"ok": 1}

    def test_real_experiment_result_persists_lenient(self, tmp_path):
        from repro.bench.experiments.r5_rankings import run as run_r5
        from repro.persist import (
            experiment_result_from_dict,
            experiment_result_to_dict,
            load_json,
            save_json,
        )

        result = run_r5(seed=2015)
        path = tmp_path / "r5.json"
        save_json(experiment_result_to_dict(result, strict=False), path)
        rebuilt = experiment_result_from_dict(load_json(path))
        assert rebuilt.render() == result.render()
