"""The docs are checked like code: links resolve, fenced examples work.

Runs ``tools/check_docs.py`` over ``README.md`` and every ``docs/*.md`` on
each test run, so the documentation cannot silently rot behind the code
(the CI docs job calls the same checker).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


check_docs = _load_checker()

DOC_FILES = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))


CLI_FLAGS = check_docs.known_cli_flags()


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_doc_file_is_healthy(path):
    problems = check_docs.check_file(path, cli_flags=CLI_FLAGS)
    assert problems == [], "\n".join(str(p) for p in problems)


def test_docs_exist_and_are_indexed():
    assert (ROOT / "docs" / "index.md").exists()
    index = (ROOT / "docs" / "index.md").read_text(encoding="utf-8")
    for page in (
        "architecture.md", "observability.md", "benchmarking.md",
        "scaling.md", "serve.md",
    ):
        assert page in index, f"docs/index.md must link {page}"


def test_public_api_is_fully_docstringed():
    problems = check_docs.check_api_docstrings(ROOT / "src" / "repro")
    assert problems == [], "\n".join(str(p) for p in problems)


class TestBenchTableFreshness:
    """Marker-delimited bench tables must match their committed dumps —
    and the checker must catch every way they can drift."""

    PAYLOAD = {
        "schema": "repro/bench-shard@1",
        "throughput": {
            "rows": [
                {
                    "scale": 2000,
                    "shard_size": 500,
                    "wall_seconds": 0.5,
                    "units_per_second": 4000.0,
                    "peak_rss_mb": 60.0,
                }
            ]
        },
        "generation": {
            "rows": [
                {
                    "ecosystem": "web-services",
                    "n_units": 2000,
                    "scalar_units_per_second": 4000.0,
                    "batch_units_per_second": 50000.0,
                    "speedup": 12.5,
                    "identical": True,
                }
            ]
        },
    }

    ENGINE_PAYLOAD = {
        "schema": "repro/bench-engine@1",
        "shard_executor": {
            "campaign_scale": 20000,
            "shard_size": 2000,
            "jobs": 4,
            "cpu_count": 4,
            "rounds": 5,
            "cache_hits": 0,
            "thread_seconds": 2.0,
            "thread_quartiles": [1.9, 2.1],
            "process_seconds": 1.0,
            "process_quartiles": [0.95, 1.05],
            "process_speedup_vs_thread": 2.0,
            "cells_identical": True,
            "speedup_asserted": True,
        },
    }

    SERVE_PAYLOAD = {
        "schema": "repro/bench-serve@1",
        "latency": {
            "rows": [
                {
                    "phase": "query",
                    "requests": 20000,
                    "p50_ms": 1.2,
                    "p99_ms": 4.8,
                    "rps": 15000.0,
                }
            ]
        },
        "fairness": {
            "abusive": "tenant-0",
            "bounded": True,
            "tenants": {
                "tenant-0": {
                    "weight": 1.0,
                    "submitted_share": 0.67,
                    "served_share": 0.26,
                },
                "tenant-1": {
                    "weight": 1.0,
                    "submitted_share": 0.33,
                    "served_share": 0.74,
                },
            },
        },
    }

    def _payload_for(self, table) -> dict:
        return {
            "results/BENCH_engine.json": self.ENGINE_PAYLOAD,
            "results/BENCH_serve.json": self.SERVE_PAYLOAD,
        }.get(table.results, self.PAYLOAD)

    def _fresh_doc(self) -> str:
        from repro.reporting.benchtables import bench_tables

        parts = ["# scaling\n"]
        for table in bench_tables():
            parts.append(
                table.begin
                + "\n"
                + table.render(self._payload_for(table))
                + "\n"
                + table.end
            )
        return "\n\n".join(parts) + "\n"

    def _root(self, tmp_path, doc_text):
        import json

        from repro.reporting.benchtables import bench_tables

        (tmp_path / "results").mkdir()
        (tmp_path / "docs").mkdir()
        (tmp_path / "results" / "BENCH_shard.json").write_text(
            json.dumps(self.PAYLOAD), encoding="utf-8"
        )
        (tmp_path / "results" / "BENCH_engine.json").write_text(
            json.dumps(self.ENGINE_PAYLOAD), encoding="utf-8"
        )
        (tmp_path / "results" / "BENCH_serve.json").write_text(
            json.dumps(self.SERVE_PAYLOAD), encoding="utf-8"
        )
        # Every registered doc gets the full marker set; each table only
        # inspects its own markers, so sharing the text is harmless.
        for doc in {table.doc for table in bench_tables()}:
            (tmp_path / doc).write_text(doc_text, encoding="utf-8")
        return tmp_path

    def test_fresh_tables_pass(self, tmp_path):
        root = self._root(tmp_path, self._fresh_doc())
        assert check_docs.check_bench_tables(root) == []

    def test_stale_table_reported(self, tmp_path):
        root = self._root(
            tmp_path, self._fresh_doc().replace("| 2,000 |", "| 2,001 |")
        )
        problems = check_docs.check_bench_tables(root)
        assert len(problems) == 1
        assert "stale" in problems[0].message
        assert "shard-throughput" in problems[0].message

    def test_missing_markers_reported(self, tmp_path):
        from repro.reporting.benchtables import bench_tables

        generation = next(t for t in bench_tables() if t.key == "shard-generation")
        root = self._root(
            tmp_path, self._fresh_doc().replace(generation.begin, "<!-- gone -->")
        )
        problems = check_docs.check_bench_tables(root)
        assert len(problems) == 1
        assert "no markers" in problems[0].message

    def test_missing_dump_is_not_a_problem(self, tmp_path):
        root = self._root(tmp_path, self._fresh_doc())
        (root / "results" / "BENCH_shard.json").unlink()
        assert check_docs.check_bench_tables(root) == []

    def test_invalid_dump_reported(self, tmp_path):
        root = self._root(tmp_path, self._fresh_doc())
        (root / "results" / "BENCH_shard.json").write_text(
            "{not json", encoding="utf-8"
        )
        problems = check_docs.check_bench_tables(root)
        assert problems and "not valid JSON" in problems[0].message

    def test_refresh_doc_makes_a_stale_table_fresh(self, tmp_path):
        from repro.reporting.benchtables import bench_tables, refresh_doc

        root = self._root(
            tmp_path, self._fresh_doc().replace("| 2,000 |", "| 9,999 |")
        )
        assert check_docs.check_bench_tables(root) != []
        changed = [t.key for t in bench_tables() if refresh_doc(t, root)]
        assert changed == ["shard-throughput"]
        assert check_docs.check_bench_tables(root) == []

    def test_committed_tables_are_fresh(self):
        problems = check_docs.check_bench_tables(ROOT)
        assert problems == [], "\n".join(str(p) for p in problems)


class TestCheckerItself:
    """The checker must actually catch problems, not just pass clean files."""

    def test_broken_link_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [gone](missing.md)\n", encoding="utf-8")
        problems = check_docs.check_file(page)
        assert len(problems) == 1
        assert "missing.md" in problems[0].message

    def test_links_inside_code_are_ignored(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`sink[class](w)` in a table\n\n```\nv := sanitize[class](w)\n```\n",
            encoding="utf-8",
        )
        assert check_docs.check_file(page) == []

    def test_failing_doctest_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```python\n>>> 1 + 1\n3\n```\n", encoding="utf-8"
        )
        problems = check_docs.check_file(page)
        assert len(problems) == 1
        assert "doctest failed" in problems[0].message

    def test_syntax_error_reported_without_doctest_prompts(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("```python\ndef broken(:\n```\n", encoding="utf-8")
        problems = check_docs.check_file(page)
        assert len(problems) == 1
        assert "does not compile" in problems[0].message

    def test_skip_marker_opts_a_block_out(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "<!-- docs-check: skip -->\n```python\ndef broken(:\n```\n",
            encoding="utf-8",
        )
        assert check_docs.check_file(page) == []

    def test_unknown_cli_flag_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "run with `repro run --frobnicate` for speed\n", encoding="utf-8"
        )
        problems = check_docs.check_file(page, cli_flags=CLI_FLAGS)
        assert len(problems) == 1
        assert "--frobnicate" in problems[0].message

    def test_known_cli_flags_pass(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "`--jobs 4` pairs well with `--cache-dir DIR`\n", encoding="utf-8"
        )
        assert check_docs.check_file(page, cli_flags=CLI_FLAGS) == []

    def test_foreign_tool_flags_are_exempt(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "pytest benchmarks/ --benchmark-only runs the perf suite\n",
            encoding="utf-8",
        )
        assert check_docs.check_file(page, cli_flags=CLI_FLAGS) == []

    def test_documented_command_the_cli_rejects_is_reported(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```bash\npython -m repro run --scale 10 --out d\n```\n",
            encoding="utf-8",
        )
        problems = check_docs.check_file(page, cli_flags=CLI_FLAGS)
        assert [(p.line, p.message) for p in problems] == [
            (
                2,
                "documented command fails: --out applies to experiment "
                "runs, not --scale",
            )
        ]

    def test_documented_journal_resume_passes(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```bash\n"
            "python -m repro run --resume run.wal --manifest m.json\n"
            "```\n",
            encoding="utf-8",
        )
        assert check_docs.check_file(page, cli_flags=CLI_FLAGS) == []

    def test_documented_command_continuations_and_comments(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "```bash\n"
            "python -m repro run all --jobs 4 \\\n"
            "    --wal run.wal  # journals are for --scale runs\n"
            "python -m repro serve --state-dir /tmp/svc &\n"
            "```\n",
            encoding="utf-8",
        )
        problems = check_docs.check_file(page, cli_flags=CLI_FLAGS)
        assert [(p.line, p.message) for p in problems] == [
            (2, "documented command fails: --wal requires --scale")
        ]

    def test_known_flags_cover_run_and_scale_surface(self):
        assert {
            "--jobs", "--seed", "--executor", "--keep-going", "--retries",
            "--resume", "--scale", "--shard-size", "--inject-fault",
        } <= CLI_FLAGS

    def test_docstring_checker_flags_a_bare_function(self, tmp_path):
        src = tmp_path / "repro"
        src.mkdir()
        (src / "mod.py").write_text(
            '"""A module."""\n\n\ndef exposed():\n    return 1\n\n\ndef _hidden():\n    return 2\n',
            encoding="utf-8",
        )
        problems = check_docs.check_api_docstrings(src)
        assert [p.message for p in problems] == [
            "public function `exposed` has no docstring"
        ]

    def test_docstring_checker_recurses_into_public_classes(self, tmp_path):
        src = tmp_path / "repro"
        src.mkdir()
        (src / "mod.py").write_text(
            '"""A module."""\n\n\nclass Tool:\n    """A tool."""\n\n    def analyze(self):\n        return 0\n',
            encoding="utf-8",
        )
        problems = check_docs.check_api_docstrings(src)
        assert [p.message for p in problems] == [
            "public function `Tool.analyze` has no docstring"
        ]

    def test_main_reports_missing_file(self, capsys):
        assert check_docs.main(["/nonexistent/page.md"]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_main_default_run_is_clean(self, capsys):
        assert check_docs.main([]) == 0
        assert "docs ok" in capsys.readouterr().out
