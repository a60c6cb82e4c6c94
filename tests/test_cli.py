"""Tests for the CLI layered on the experiment engine (in-process)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.engine.manifest import MANIFEST_SCHEMA
from repro.bench.engine.spec import all_specs
from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a subprocess, for exit-code checks."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )


class TestList:
    def test_lists_every_registered_experiment(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 20
        assert lines[0].startswith("R1 ")
        assert "Metric catalog (table)" in lines[0]

    def test_lines_come_from_the_specs(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for spec in all_specs():
            assert f"{spec.experiment_id:4s} {spec.list_line}" in out


class TestRun:
    def test_unknown_id_is_a_clean_error(self):
        known = ", ".join(f"R{index}" for index in range(1, 21))
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "R99"])
        assert str(excinfo.value) == f"unknown experiment 'R99'; known: {known}"

    def test_run_r1_prints_report_and_timing(self, capsys):
        assert main(["run", "R1"]) == 0
        captured = capsys.readouterr()
        assert "=== R1: Metric catalog ===" in captured.out
        assert "[R1 completed in" in captured.err

    def test_quiet_suppresses_stdout(self, capsys):
        main(["run", "R1", "--quiet"])
        captured = capsys.readouterr()
        assert "=== R1" not in captured.out
        assert "[R1 completed in" in captured.err

    def test_out_writes_text_reports(self, tmp_path, capsys):
        main(["run", "R5", "--quiet", "--out", str(tmp_path)])
        capsys.readouterr()
        written = (tmp_path / "r5.txt").read_text(encoding="utf-8")
        assert written.startswith("=== R5:")

    def test_out_format_md_writes_markdown(self, tmp_path, capsys):
        main(["run", "R5", "--quiet", "--out", str(tmp_path), "--format", "md"])
        capsys.readouterr()
        assert (tmp_path / "r5.md").exists()
        assert not (tmp_path / "r5.txt").exists()
        assert "R5" in (tmp_path / "r5.md").read_text(encoding="utf-8")

    def test_multiple_ids_print_in_requested_order(self, capsys):
        main(["run", "R4", "R3", "--quiet"])
        err = capsys.readouterr().err
        assert err.index("[R4 completed") < err.index("[R3 completed")


class TestEngineFlags:
    def test_jobs_matches_serial_output(self, capsys):
        main(["run", "R3", "R4", "R5", "--seed", "2015"])
        serial = capsys.readouterr().out
        main(["run", "R3", "R4", "R5", "--seed", "2015", "--jobs", "4"])
        parallel = capsys.readouterr().out
        assert parallel == serial

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "R1", "--timeout", "0"], "timeout must be > 0"),
            (["run", "R1", "--retries", "-1"], "retries must be >= 0"),
            (["run", "--scale", "100", "--timeout", "0"], "timeout must be > 0"),
            (
                ["run", "R1", "--jobs", "2", "--executor", "thread"],
                "jobs=2 requires executor='process'",
            ),
            (
                ["run", "R1", "--timeout", "5", "--executor", "thread"],
                "timeout=5.0 requires executor='process'",
            ),
            (
                ["run", "--scale", "100", "--jobs", "2", "--executor", "thread"],
                "jobs=2 requires executor='process'",
            ),
        ],
        ids=[
            "timeout", "retries", "scale-timeout", "thread-jobs",
            "thread-timeout", "scale-thread-jobs",
        ],
    )
    def test_invalid_policy_is_a_clean_error(self, argv, message):
        with pytest.raises(SystemExit, match=f"^run aborted — {message}"):
            main(argv)

    def test_jobs_zero_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="--jobs must be >= 1"):
            main(["run", "R1", "--jobs", "0"])

    def test_thread_executor_with_jobs_exits_1_with_one_line(self):
        proc = run_cli("run", "R1", "--jobs", "2", "--executor", "thread")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("run aborted — jobs=2 requires")
        assert proc.stderr.count("\n") == 1

    def test_process_executor_matches_thread_output(self, capsys):
        main(["run", "R1", "R4", "--seed", "2015", "--executor", "thread"])
        threaded = capsys.readouterr().out
        main(
            ["run", "R1", "R4", "--seed", "2015", "--jobs", "2",
             "--executor", "process"]
        )
        processed = capsys.readouterr().out
        assert processed == threaded

    def test_profile_with_process_executor_is_a_clean_error(self, tmp_path):
        message = "^run aborted — profiling requires the thread executor"
        for extra in (["--executor", "process"], ["--jobs", "2"]):
            with pytest.raises(SystemExit, match=message):
                main(["run", "R1", "--profile", str(tmp_path), *extra])

    def test_manifest_written_with_schema(self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        main(["run", "R3", "R4", "--quiet", "--manifest", str(manifest_path)])
        capsys.readouterr()
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert payload["schema"] == MANIFEST_SCHEMA
        assert [e["experiment_id"] for e in payload["experiments"]] == ["R3", "R4"]
        campaign = [
            event
            for record in payload["experiments"]
            for event in record["artifacts"]
            if event["key"].startswith("campaign:reference")
        ]
        assert [event["status"] for event in campaign] == ["miss", "hit"]

    def test_cache_dir_persists_and_warm_run_disk_hits(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold_manifest = tmp_path / "cold.json"
        warm_manifest = tmp_path / "warm.json"
        main(
            ["run", "R3", "--quiet", "--cache-dir", str(cache),
             "--manifest", str(cold_manifest)]
        )
        cold_out = capsys.readouterr().out
        assert any(cache.iterdir()), "cold run must persist artifacts"
        main(
            ["run", "R3", "--cache-dir", str(cache),
             "--manifest", str(warm_manifest)]
        )
        capsys.readouterr()
        warm = json.loads(warm_manifest.read_text(encoding="utf-8"))
        assert warm["totals"]["disk-hit"] >= 1
        assert warm["totals"]["miss"] < json.loads(
            cold_manifest.read_text(encoding="utf-8")
        )["totals"]["miss"]
        del cold_out


class TestObservabilityFlags:
    def test_trace_writes_perfetto_loadable_json(self, tmp_path, capsys):
        from repro.obs import TRACE_SCHEMA, spans_from_chrome_trace

        trace_path = tmp_path / "t.json"
        main(["run", "R1", "--quiet", "--trace", str(trace_path)])
        err = capsys.readouterr().err
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert payload["otherData"]["schema"] == TRACE_SCHEMA
        assert payload["traceEvents"], "a run must record spans"
        assert all(e["ph"] == "X" for e in payload["traceEvents"])
        spans = spans_from_chrome_trace(payload)
        assert {"engine.run", "experiment.R1"} <= {s.name for s in spans}
        assert f"[trace: {len(spans)} spans -> {trace_path}]" in err

    def test_metrics_out_counters_match_manifest(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        manifest_path = tmp_path / "run.json"
        main(
            ["run", "R3", "R4", "--quiet", "--jobs", "2",
             "--metrics-out", str(metrics_path),
             "--manifest", str(manifest_path)]
        )
        capsys.readouterr()
        counters = json.loads(metrics_path.read_text(encoding="utf-8"))["counters"]
        totals = json.loads(manifest_path.read_text(encoding="utf-8"))["totals"]
        for status, total in totals.items():
            assert counters.get(
                f"engine.cache.{status.replace('-', '_')}", 0
            ) == total, status
        assert counters["engine.experiments.completed"] == 2

    def test_profile_writes_pstats_and_hotspots(self, tmp_path, capsys):
        main(["run", "R1", "--quiet", "--profile", str(tmp_path)])
        err = capsys.readouterr().err
        assert (tmp_path / "r1.pstats").exists()
        hotspots = (tmp_path / "hotspots.txt").read_text(encoding="utf-8")
        assert "Hotspots — R1" in hotspots
        assert "[profiles: 1 .pstats" in err

    def test_stats_renders_a_dump(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        main(["run", "R1", "--quiet", "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        assert main(["stats", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "Counters" in out
        assert "engine.experiments.completed" in out

    def test_stats_prefix_filters(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        main(["run", "R1", "--quiet", "--metrics-out", str(metrics_path)])
        capsys.readouterr()
        main(["stats", str(metrics_path), "--prefix", "engine.cache."])
        out = capsys.readouterr().out
        assert "engine.cache.miss" in out
        assert "engine.experiments.completed" not in out

    def test_stats_missing_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such metrics dump"):
            main(["stats", str(tmp_path / "nope.json")])

    def test_stats_cache_dir_summarizes_quarantine(self, tmp_path, capsys):
        (tmp_path / "a.json.corrupt").write_bytes(b"x" * 10)
        (tmp_path / "b.json.corrupt").write_bytes(b"y" * 6)
        (tmp_path / "healthy.json").write_text("{}")
        assert main(["stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "quarantined cache files: 2 (16 bytes" in out
        assert "a.json.corrupt" in out
        assert "healthy.json" not in out

    def test_stats_requires_some_input(self):
        with pytest.raises(SystemExit, match="metrics FILE and/or --cache-dir"):
            main(["stats"])

    def test_stats_missing_cache_dir_is_a_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no such cache dir"):
            main(["stats", "--cache-dir", str(tmp_path / "nope")])


class TestParser:
    def test_run_requires_at_least_one_id(self):
        # ids are optional at parse time (--resume supplies them), so the
        # check happens in main().
        with pytest.raises(SystemExit, match="experiment ids required"):
            main(["run"])

    def test_run_rejects_ids_alongside_resume(self, tmp_path):
        with pytest.raises(SystemExit, match="--resume"):
            main(["run", "R1", "--resume", str(tmp_path / "m.json")])

    def test_defaults(self):
        # None means "not passed": each rail resolves --seed to 2015 and
        # --format to text, and --resume can reject an explicit --seed 0.
        args = build_parser().parse_args(["run", "R1"])
        assert args.seed is None
        assert args.output_format is None
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.manifest is None
        assert args.trace is None
        assert args.metrics_out is None
        assert args.profile is None
        assert args.executor is None

    def test_executor_accepts_thread_and_process_only(self):
        parser = build_parser()
        assert parser.parse_args(
            ["run", "R1", "--executor", "process"]
        ).executor == "process"
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "R1", "--executor", "fiber"])

    def test_bare_profile_defaults_to_results_dir(self):
        from pathlib import Path

        args = build_parser().parse_args(["run", "R1", "--profile"])
        assert args.profile == Path("results")


class TestScale:
    def test_scale_run_prints_totals_and_summary(self, capsys):
        assert main(["run", "--scale", "90", "--shard-size", "30"]) == 0
        captured = capsys.readouterr()
        assert (
            "Sharded campaign totals [web-services] — 90 units in 3 shards"
            in captured.out
        )
        assert "[90 units in 3 shards (shard_size=30)" in captured.err

    def test_scale_manifest_has_shard_schema(self, tmp_path, capsys):
        manifest_path = tmp_path / "shards.json"
        main(
            ["run", "--scale", "60", "--shard-size", "30", "--quiet",
             "--jobs", "2", "--manifest", str(manifest_path)]
        )
        capsys.readouterr()
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro/shard-run@2"
        assert payload["scale"] == 60
        assert [r["status"] for r in payload["shards"]] == ["completed"] * 2
        assert all(r["cells"] is not None for r in payload["shards"])

    def test_injected_fault_without_keep_going_aborts(self, capsys):
        with pytest.raises(SystemExit, match="run aborted — shard 1"):
            main(
                ["run", "--scale", "60", "--shard-size", "30", "--quiet",
                 "--inject-fault", "S1"]
            )

    def test_keep_going_then_resume_completes_the_run(self, tmp_path, capsys):
        wal = tmp_path / "shards.wal"
        code = main(
            ["run", "--scale", "90", "--shard-size", "30", "--quiet",
             "--keep-going", "--inject-fault", "s1", "--wal", str(wal)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "[shard 1 failed after 1 attempt: InjectedFault" in captured.err
        assert main(["run", "--quiet", "--resume", str(wal)]) == 0
        err = capsys.readouterr().err
        assert "[90 units in 3 shards (shard_size=30)" in err

    def test_resume_refuses_a_shard_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "shards.json"
        main(
            ["run", "--scale", "60", "--shard-size", "30", "--quiet",
             "--manifest", str(manifest_path)]
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--quiet", "--resume", str(manifest_path)])
        message = str(excinfo.value.code)
        assert "a sharded run resumes from its --wal journal" in message
        assert "\n" not in message

    def test_resume_rejects_shard_size(self, tmp_path, capsys):
        wal = tmp_path / "run.wal"
        main(
            ["run", "--scale", "60", "--shard-size", "30", "--quiet",
             "--wal", str(wal)]
        )
        capsys.readouterr()
        with pytest.raises(
            SystemExit, match="don't pass --shard-size alongside"
        ):
            main(["run", "--resume", str(wal), "--shard-size", "7", "--quiet"])

    def test_wal_refuses_to_overwrite_another_file(self, tmp_path):
        notes = tmp_path / "notes.json"
        notes.write_text('{"schema": "repro/shard-run@2"}\n')
        before = notes.read_bytes()
        with pytest.raises(SystemExit, match="not a shard journal"):
            main(
                ["run", "--scale", "60", "--shard-size", "30", "--quiet",
                 "--wal", str(notes)]
            )
        assert notes.read_bytes() == before

    def test_interrupted_hint_names_the_journal_in_use(self, tmp_path, capsys):
        wal = tmp_path / "run.wal"
        stop = ["--inject-fault", "PARENT:stop=1", "--quiet"]
        code = main(
            ["run", "--scale", "400", "--shard-size", "100", "--wal", str(wal),
             *stop]
        )
        assert code == 1
        assert f"resume with --resume {wal}]" in capsys.readouterr().err
        assert main(["run", "--resume", str(wal), *stop]) == 1
        assert f"resume with --resume {wal}]" in capsys.readouterr().err

    def test_retries_recover_and_totals_render(self, capsys):
        code = main(
            ["run", "--scale", "60", "--shard-size", "30",
             "--retries", "1", "--inject-fault", "S0:fail=1"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Sharded campaign totals" in captured.out

    def test_trace_and_metrics_record_shard_activity(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        main(
            ["run", "--scale", "60", "--shard-size", "30", "--quiet",
             "--trace", str(trace_path), "--metrics-out", str(metrics_path)]
        )
        capsys.readouterr()
        events = json.loads(trace_path.read_text(encoding="utf-8"))["traceEvents"]
        assert {"engine.shard_run", "shard.generate", "shard.evaluate"} <= {
            e["name"] for e in events
        }
        counters = json.loads(metrics_path.read_text(encoding="utf-8"))["counters"]
        assert counters["engine.shards.completed"] == 2
        assert counters["engine.shards.units"] == 60

    def test_scale_rejects_experiment_ids(self):
        with pytest.raises(
            SystemExit,
            match="^an experiment id applies to experiment runs, not --scale$",
        ):
            main(["run", "R1", "--scale", "100"])

    def test_scale_rejects_resume_out_profile(self, tmp_path):
        with pytest.raises(SystemExit, match="don't pass --scale alongside"):
            main(["run", "--scale", "10", "--resume", str(tmp_path / "m.json")])
        with pytest.raises(SystemExit, match="--out applies to experiment"):
            main(["run", "--scale", "10", "--out", str(tmp_path)])
        with pytest.raises(SystemExit, match="--profile applies to experiment"):
            main(["run", "--scale", "10", "--profile"])

    def test_wal_requires_scale(self, tmp_path):
        with pytest.raises(SystemExit, match="^--wal requires --scale$"):
            main(["run", "R1", "--wal", str(tmp_path / "w.wal")])

    def test_wal_rejects_journal_resume(self, tmp_path):
        from repro.bench.engine.wal import JournalHeader, ShardJournal

        wal_path = tmp_path / "w.wal"
        journal = ShardJournal.create(
            wal_path,
            JournalHeader(
                seed=2015, scale=60, shard_size=30, ecosystem="web-services",
                tool_names=("ToolA",), tool_families=None,
            ),
        )
        journal.close()
        with pytest.raises(SystemExit, match="don't pass --wal alongside"):
            main(
                ["run", "--resume", str(wal_path),
                 "--wal", str(tmp_path / "other.wal")]
            )

    def test_shard_size_requires_scale(self):
        with pytest.raises(SystemExit, match="--shard-size requires --scale"):
            main(["run", "R1", "--shard-size", "10"])

    def test_scale_accepts_timeout(self):
        code = main(
            ["run", "--scale", "60", "--shard-size", "30", "--quiet",
             "--timeout", "30"]
        )
        assert code == 0

    def test_wal_resume_round_trip(self, tmp_path):
        from repro.bench.engine.faults import tear_file

        wal = tmp_path / "run.wal"
        code = main(
            ["run", "--scale", "60", "--shard-size", "30", "--quiet",
             "--wal", str(wal)]
        )
        assert code == 0
        tear_file(wal, n_bytes=16)  # lose the final record's tail
        manifest = tmp_path / "resumed.json"
        code = main(
            ["run", "--resume", str(wal), "--quiet",
             "--manifest", str(manifest)]
        )
        assert code == 0
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert payload["extra"]["resume"] == {
            "carried": [0],
            "source": "wal",
        }
        assert [r["status"] for r in payload["shards"]] == ["completed"] * 2

    def test_invalid_scale_values_are_clean_errors(self):
        with pytest.raises(SystemExit, match="--scale must be >= 1"):
            main(["run", "--scale", "0"])
        with pytest.raises(SystemExit, match="--shard-size must be >= 1"):
            main(["run", "--scale", "10", "--shard-size", "0"])

    def test_resume_with_experiment_manifest_uses_experiment_path(
        self, tmp_path, capsys
    ):
        # Only a journal takes the sharded rail; an experiment-engine
        # manifest routes to the experiment resume path.
        manifest_path = tmp_path / "run.json"
        main(["run", "R1", "--quiet", "--manifest", str(manifest_path)])
        capsys.readouterr()
        assert main(["run", "--quiet", "--resume", str(manifest_path)]) == 0
        err = capsys.readouterr().err
        assert "R1" in err


class TestEcosystemFlags:
    def test_list_ecosystems_prints_both_registries(self, capsys):
        from repro.tools.families import family_names
        from repro.workload.ecosystems import ecosystem_names

        assert main(["run", "--list-ecosystems"]) == 0
        out = capsys.readouterr().out
        for name in ecosystem_names():
            assert name in out
        for key in family_names():
            assert key in out

    def test_ecosystem_run_labels_the_totals(self, tmp_path, capsys):
        manifest_path = tmp_path / "eco.json"
        code = main(
            ["run", "--scale", "40", "--shard-size", "20",
             "--ecosystem", "npm-deps", "--manifest", str(manifest_path)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "[npm-deps]" in captured.out
        assert "ecosystem=npm-deps" in captured.err
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        assert payload["ecosystem"] == "npm-deps"

    def test_unknown_ecosystem_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown ecosystem 'bogus'"):
            main(["run", "--scale", "40", "--ecosystem", "bogus"])
        # 'all' is no longer a sweep; it is just not a registered name.
        with pytest.raises(
            SystemExit, match="^run aborted — unknown ecosystem 'all'; known: "
        ):
            main(["run", "--scale", "40", "--ecosystem", "all"])

    def test_unknown_tool_family_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown tool family 'nope'"):
            main(["run", "--scale", "40", "--tool-family", "nope"])

    def test_ecosystem_requires_scale(self):
        with pytest.raises(SystemExit, match="--ecosystem requires --scale"):
            main(["run", "R1", "--ecosystem", "npm-deps"])

    def test_tool_family_requires_scale(self):
        with pytest.raises(SystemExit, match="--tool-family requires --scale"):
            main(["run", "R1", "--tool-family", "sa"])

    def test_ecosystem_rejected_alongside_resume(self, tmp_path):
        with pytest.raises(SystemExit, match="--ecosystem"):
            main(
                ["run", "--resume", str(tmp_path / "m.json"),
                 "--ecosystem", "npm-deps"]
            )


class TestServe:
    """Argument validation for the campaign service subcommand.

    The service itself is exercised in tests/serve/; here we only assert
    that bad invocations die before a socket ever binds.
    """

    def test_state_dir_is_required(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve"])
        assert "--state-dir" in capsys.readouterr().err

    def test_worker_counts_must_be_positive(self, tmp_path):
        state = str(tmp_path / "state")
        with pytest.raises(SystemExit, match="--serve-workers"):
            main(["serve", "--state-dir", state, "--serve-workers", "0"])
        with pytest.raises(SystemExit, match="--jobs"):
            main(["serve", "--state-dir", state, "--jobs", "0"])
        with pytest.raises(SystemExit, match="--quantum"):
            main(["serve", "--state-dir", state, "--quantum", "0"])
        with pytest.raises(SystemExit, match="--result-cache"):
            main(["serve", "--state-dir", state, "--result-cache", "0"])

    def test_thread_executor_with_jobs_fails_at_start_up(self, tmp_path):
        proc = run_cli(
            "serve", "--state-dir", str(tmp_path / "state"), "--port", "0",
            "--executor", "thread", "--jobs", "2",
        )
        assert proc.returncode == 1
        assert proc.stdout == "", "the service must not bind"
        assert proc.stderr.startswith("serve aborted — jobs=2 requires")
        assert proc.stderr.count("\n") == 1

    def test_tenant_weight_syntax(self, tmp_path):
        state = str(tmp_path / "state")
        for bad in ("ci", "ci=", "=2", "ci=zero", "ci=0", "ci=-1"):
            with pytest.raises(SystemExit, match="--tenant-weight"):
                main(
                    ["serve", "--state-dir", state, "--tenant-weight", bad]
                )

    def test_weight_parser_accepts_valid_specs(self):
        from repro.cli import _parse_tenant_weights

        assert _parse_tenant_weights(["ci=2.5", "ad-hoc=0.5"]) == {
            "ci": 2.5,
            "ad-hoc": 0.5,
        }
        assert _parse_tenant_weights(None) == {}


def _write_journal(path: Path) -> None:
    """A journal header only: enough for ``run`` to pick the shard rail."""
    from repro.bench.engine.wal import JournalHeader, ShardJournal

    ShardJournal.create(
        path,
        JournalHeader(
            seed=5, scale=60, shard_size=30, ecosystem="web-services",
            tool_names=("ToolA",), tool_families=None,
        ),
    ).close()


def _write_run_manifest(path: Path) -> dict:
    """A ``run-manifest@2`` whose one experiment, R3, failed at seed 5."""
    from repro.bench.engine.manifest import ExperimentRunRecord, RunManifest

    manifest = RunManifest(
        seed=5, jobs=1, wall_seconds=0.0,
        records=(
            ExperimentRunRecord(
                experiment_id="R3", title="R3", seed=5, wall_seconds=0.0,
                status="failed",
            ),
        ),
    )
    path.write_text(json.dumps(manifest.to_dict()), encoding="utf-8")
    return manifest.to_dict()


class _StubManifest:
    ok = True
    records = ()

    def record_for(self, key):
        return SimpleNamespace(
            status="completed", completed=True, wall_seconds=0.0
        )

    def to_dict(self):
        return {"stub": True}

    def summary_line(self):
        return "stub run"


class _StubRun:
    manifest = _StubManifest()
    results: dict = {}
    totals = None
    interrupted = False


TRIGGER_FILES = {"journal": "j.wal", "manifest": "run.json"}


class TestRailTable:
    """``main`` either calls the one rail the rule picks, with the drawn
    values, or rejects a flag that rail does not take in one line.

    The rule is written out here, not read from ``repro.cli``: with
    ``--resume FILE``, FILE's journal magic picks the rail and every flag
    FILE restores is rejected; without it ``--scale`` picks the shard rail.
    """

    RESTORED = {
        "ids", "--seed", "--scale", "--shard-size", "--ecosystem",
        "--tool-family", "--wal",
    }
    SHARD_ONLY = {
        "--scale", "--shard-size", "--ecosystem", "--tool-family", "--wal",
    }
    EXPERIMENT_ONLY = {"ids", "--out", "--profile", "--format"}
    NEUTRAL = [
        "--quiet", "--jobs", "--executor", "--cache-dir", "--manifest",
        "--trace", "--metrics-out", "--keep-going", "--retries", "--timeout",
        "--inject-fault",
    ]
    SHOWN_AS = {"ids": "an experiment id"}
    TRIGGERS = {
        "ids": {"ids"},
        "scale": {"--scale", "--shard-size"},
        "journal": set(),
        "manifest": set(),
    }

    @staticmethod
    def _values(draw, root: Path) -> dict:
        from hypothesis import strategies as st

        return {
            "ids": ["R1"],
            "--seed": ["--seed", str(draw(st.integers(0, 10)))],
            "--scale": ["--scale", "60"],
            "--shard-size": ["--shard-size", "30"],
            "--ecosystem": [
                "--ecosystem",
                draw(st.sampled_from(["web-services", "android", "iac"])),
            ],
            "--tool-family": [
                "--tool-family", draw(st.sampled_from(["sa", "sca"]))
            ],
            "--wal": ["--wal", str(root / "w.wal")],
            "--out": ["--out", str(root / "out")],
            "--profile": ["--profile", str(root / "prof")],
            "--format": ["--format", draw(st.sampled_from(["text", "md"]))],
            "--quiet": ["--quiet"],
            "--jobs": ["--jobs", str(draw(st.integers(1, 3)))],
            "--executor": [
                "--executor", draw(st.sampled_from(["thread", "process"]))
            ],
            "--cache-dir": ["--cache-dir", str(root / "cache")],
            "--manifest": ["--manifest", str(root / "m.json")],
            "--trace": ["--trace", str(root / "t.json")],
            "--metrics-out": ["--metrics-out", str(root / "metrics.json")],
            "--keep-going": ["--keep-going"],
            "--retries": ["--retries", str(draw(st.integers(0, 2)))],
            "--timeout": ["--timeout", draw(st.sampled_from(["0.5", "30"]))],
            "--inject-fault": ["--inject-fault", "R3:fail=1"],
        }

    def _expected_rejection(self, trigger: str, drawn: set[str]):
        resume = trigger in ("journal", "manifest")
        sharded = trigger == "journal" if resume else "--scale" in drawn
        forbidden = {}
        for flag in drawn:
            if resume and flag in self.RESTORED:
                forbidden[flag] = "resume"
            elif flag in self.SHARD_ONLY and not sharded:
                forbidden[flag] = "requires"
            elif flag in self.EXPERIMENT_ONLY and sharded:
                forbidden[flag] = "applies"
        return sharded, forbidden

    def test_main_calls_the_rule_s_rail_or_rejects_one_drawn_flag(self):
        import re
        import tempfile

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.bench.engine import scheduler, shards

        rail_flags = self.RESTORED | self.SHARD_ONLY | self.EXPERIMENT_ONLY
        shown = {self.SHOWN_AS.get(flag, flag): flag for flag in rail_flags}
        patterns = {
            "resume": r"--resume continues .*'s own run; "
            r"don't pass (.+) alongside it",
            "requires": r"(.+) requires --scale",
            "applies": r"(.+) applies to experiment runs, not --scale",
        }
        probes = [
            (trigger, flag)
            for trigger, own in sorted(self.TRIGGERS.items())
            for flag in [None, *sorted(rail_flags - own)]
        ]
        calls = []

        def check(data, root, manifest_dict):
            # A trigger and at most one rail flag, uniformly, so that each
            # flag alone on each rail is a common draw; then, half the
            # time, any subset of the other rail flags.
            trigger, probe = data.draw(st.sampled_from(probes))
            drawn = {probe} - {None}
            drawn |= data.draw(
                st.one_of(
                    st.just(set()),
                    st.sets(
                        st.sampled_from(
                            sorted(rail_flags - self.TRIGGERS[trigger])
                        )
                    ),
                )
            )
            drawn |= data.draw(st.sets(st.sampled_from(self.NEUTRAL)))
            values = self._values(data.draw, root)
            drawn |= self.TRIGGERS[trigger]
            argv = ["run"] + (["R1"] if "ids" in drawn else [])
            if trigger in ("journal", "manifest"):
                argv += ["--resume", str(root / TRIGGER_FILES[trigger])]
            for flag in sorted(drawn - {"ids"}):
                argv += values[flag]

            calls.clear()
            sharded, forbidden = self._expected_rejection(trigger, drawn)
            if forbidden:
                with pytest.raises(SystemExit) as excinfo:
                    main(argv)
                message = str(excinfo.value.code)
                named = [
                    (why, shown.get(match.group(1)))
                    for why, pattern in patterns.items()
                    if (match := re.fullmatch(pattern, message))
                ]
                assert len(named) == 1, message
                why, flag = named[0]
                assert forbidden.get(flag) == why, (message, forbidden)
                assert calls == []
            else:
                assert main(argv) == 0
                assert [rail for rail, _ in calls] == [
                    "shards" if sharded else "experiments"
                ]
                self._check_kwargs(
                    calls[0][1], trigger, drawn, values, root, manifest_dict
                )

        with (
            tempfile.TemporaryDirectory() as tmp,
            pytest.MonkeyPatch.context() as patch,
        ):
            root = Path(tmp)
            _write_journal(root / TRIGGER_FILES["journal"])
            manifest_dict = _write_run_manifest(root / TRIGGER_FILES["manifest"])
            before = {
                name: (root / name).read_bytes() for name in TRIGGER_FILES.values()
            }
            patch.setattr(
                scheduler, "run_experiments",
                lambda ids, **kw: calls.append(
                    ("experiments", {"ids": list(ids), **kw})
                ) or _StubRun(),
            )
            patch.setattr(
                shards, "run_sharded_campaign",
                lambda **kw: calls.append(("shards", kw)) or _StubRun(),
            )
            settings(max_examples=400, deadline=None)(given(st.data())(
                lambda data: check(data, root, manifest_dict)
            ))()
            assert {
                name: (root / name).read_bytes() for name in TRIGGER_FILES.values()
            } == before

    @staticmethod
    def _check_kwargs(kwargs, trigger, drawn, values, root, manifest_dict):
        def value(flag, default):
            return values[flag][1] if flag in drawn else default

        assert kwargs["seed"] == int(value("--seed", 2015))
        assert kwargs["jobs"] == int(value("--jobs", 1))
        assert kwargs["executor"] == value("--executor", None)
        assert kwargs["keep_going"] == ("--keep-going" in drawn)
        assert kwargs["retries"] == int(value("--retries", 0))
        timeout = value("--timeout", None)
        assert kwargs["timeout"] == (float(timeout) if timeout else None)
        assert kwargs["cache_dir"] == value("--cache-dir", None)
        assert (kwargs["faults"] is not None) == ("--inject-fault" in drawn)
        if "scale" in kwargs:
            journal = trigger == "journal"
            assert kwargs["scale"] == (None if journal else 60)
            assert kwargs["shard_size"] == int(value("--shard-size", 10000))
            assert kwargs["ecosystem"] == value("--ecosystem", "web-services")
            family = value("--tool-family", None)
            assert kwargs["tool_families"] == ((family,) if family else None)
            wal = str(root / "j.wal") if journal else value("--wal", None)
            assert kwargs["wal_path"] == wal
        elif trigger == "manifest":
            assert kwargs["resume_from"].to_dict() == manifest_dict
            assert kwargs["ids"] == ["R3"]
        else:
            assert kwargs["resume_from"] is None
            assert kwargs["ids"] == ["R1"]


class TestRejections:
    """Each rejection is one stderr line, exit 1, before anything is written."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--resume", "{J}", "--seed", "9"],
             "--resume continues {J}'s own run; don't pass --seed alongside it"),
            (["--resume", "{M}", "--seed", "9"],
             "--resume continues {M}'s own run; don't pass --seed alongside it"),
            (["--resume", "{J}", "--seed", "0"],
             "--resume continues {J}'s own run; don't pass --seed alongside it"),
            (["--resume", "{J}", "--ecosystem", "android"],
             "--resume continues {J}'s own run; don't pass --ecosystem alongside it"),
            (["--resume", "{J}", "--out", "{D}"],
             "--out applies to experiment runs, not --scale"),
            (["R1", "--wal", "{W}"], "--wal requires --scale"),
            (["R1", "--shard-size", "3"], "--shard-size requires --scale"),
            (["--scale", "10", "R1"],
             "an experiment id applies to experiment runs, not --scale"),
            (["--scale", "10", "--ecosystem", "all", "--wal", "{W}"],
             "run aborted — unknown ecosystem 'all'; known: web-services, "
             "android, npm-deps, iac"),
        ],
        ids=[
            "journal-seed", "manifest-seed", "journal-seed-0",
            "journal-ecosystem", "journal-out", "wal-without-scale",
            "shard-size-without-scale", "scale-with-ids", "ecosystem-all",
        ],
    )
    def test_rejection_is_one_line_and_writes_nothing(
        self, tmp_path, argv, message
    ):
        journal, manifest = tmp_path / "j.wal", tmp_path / "run.json"
        _write_journal(journal)
        _write_run_manifest(manifest)
        before = sorted(
            (path.name, path.read_bytes()) for path in tmp_path.iterdir()
        )
        paths = {
            "J": journal, "M": manifest, "D": tmp_path / "d",
            "W": tmp_path / "w.wal",
        }
        proc = run_cli(
            "run", *(arg.format(**paths) for arg in argv), "--quiet"
        )
        assert proc.returncode == 1
        assert proc.stderr == message.format(**paths) + "\n"
        after = sorted(
            (path.name, path.read_bytes()) for path in tmp_path.iterdir()
        )
        assert after == before

    def test_resume_runs_the_journal_s_own_seed(self, tmp_path, capsys):
        wal, manifest = tmp_path / "run.wal", tmp_path / "resumed.json"
        assert main(
            ["run", "--scale", "60", "--shard-size", "30", "--seed", "5",
             "--quiet", "--keep-going", "--inject-fault", "S1",
             "--wal", str(wal)]
        ) == 1
        assert main(
            ["run", "--resume", str(wal), "--quiet",
             "--manifest", str(manifest)]
        ) == 0
        capsys.readouterr()
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        assert payload["seed"] == 5
        assert payload["extra"]["resume"] == {"carried": [0], "source": "wal"}


class TestBadFiles:
    """A file the CLI cannot read, or a path it cannot write, is one line."""

    @staticmethod
    def _one_line(argv, prefix, path):
        before = path.read_bytes() if path.is_file() else None
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        message = excinfo.value.code
        assert isinstance(message, str), message  # exits 1
        assert message.startswith(prefix), message
        assert "\n" not in message
        assert str(path) in message
        assert (path.read_bytes() if path.is_file() else None) == before

    @pytest.mark.parametrize(
        "content",
        ["{", "", None, "[1, 2]", '{"schema": "repro/run-manifest@2"}'],
        ids=["brace", "empty", "directory", "list", "missing-keys"],
    )
    def test_run_resume_of_a_malformed_file(self, tmp_path, content):
        path = tmp_path / "bad.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content, encoding="utf-8")
        self._one_line(
            ["run", "--resume", str(path), "--quiet"], "run aborted — ", path
        )

    @pytest.mark.parametrize(
        "argv,target",
        [
            (["R1", "--manifest", "{tmp}/nodir/m.json"], "nodir/m.json"),
            (["--scale", "20", "--trace", "{tmp}/nodir/t.json"], "nodir/t.json"),
            (["R1", "--out", "{tmp}/afile"], "afile"),
        ],
        ids=["manifest", "trace", "out-is-a-file"],
    )
    def test_run_output_to_an_unwritable_path(
        self, tmp_path, capsys, argv, target
    ):
        (tmp_path / "afile").write_text("keep\n", encoding="utf-8")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        self._one_line(
            ["run", *argv, "--quiet"],
            f"run aborted — cannot write {tmp_path / target}: ",
            tmp_path / target,
        )

    @pytest.mark.parametrize(
        "content",
        ["{", None, '{"schema": "x"}', "[1, 2]"],
        ids=["brace", "directory", "wrong-schema", "list"],
    )
    def test_stats_of_a_malformed_file(self, tmp_path, content):
        path = tmp_path / "m.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content, encoding="utf-8")
        self._one_line(["stats", str(path)], "stats aborted — ", path)

    def test_serve_state_dir_that_is_a_file(self, tmp_path):
        path = tmp_path / "afile"
        path.write_text("keep\n", encoding="utf-8")
        self._one_line(
            ["serve", "--state-dir", str(path), "--port", "0"],
            f"serve aborted — cannot write {path}: ",
            path,
        )
