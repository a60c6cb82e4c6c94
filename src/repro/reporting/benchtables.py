"""Marker-delimited bench tables: one renderer, shared by bench and checker.

Several docs pages carry throughput tables regenerated from committed
``results/BENCH_*.json`` dumps between HTML-comment markers (for example
``<!-- shard-bench:rows:begin -->`` in ``docs/scaling.md``).  Before this
module the renderer lived inside the benchmark that wrote the table, so
nothing could *verify* a committed table without re-running the bench —
a hand-edited or forgotten table was invisible to CI.

This module is the single source of truth for those tables:

- :func:`bench_tables` registers every marker-delimited table — which doc
  carries it, which dump section feeds it, and how to render it;
- the benchmarks call :func:`refresh_doc` after updating their dump, so
  the docs can never drift from the numbers they cite;
- ``tools/check_docs.py`` re-renders each registered table from the
  committed dump and reports a stale table as a docs problem, which
  ``tests/test_docs.py`` and the docs CI job enforce.

Renderers are pure functions of the dump payload, so "fresh" is a string
equality check — no tolerance windows, no reformatting heuristics.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "BenchTable",
    "bench_tables",
    "refresh_doc",
    "render_serve_fairness",
    "render_serve_latency",
    "render_shard_executor",
    "render_shard_generation",
    "render_shard_throughput",
    "table_in_doc",
]


def render_shard_throughput(payload: dict) -> str:
    """The ``docs/scaling.md`` throughput table from a shard-bench dump."""
    lines = [
        "| units | shard size | wall (s) | units/s | peak RSS (MB) |",
        "|---|---|---|---|---|",
    ]
    for row in payload["throughput"]["rows"]:
        lines.append(
            f"| {row['scale']:,} | {row['shard_size']:,} "
            f"| {row['wall_seconds']:.2f} | {row['units_per_second']:,.0f} "
            f"| {row['peak_rss_mb']:.0f} |"
        )
    return "\n".join(lines)


def render_shard_generation(payload: dict) -> str:
    """The per-ecosystem scalar-vs-columnar generation table."""
    lines = [
        "| ecosystem | scalar units/s | columnar units/s | speedup |",
        "|---|---|---|---|",
    ]
    for row in payload["generation"]["rows"]:
        lines.append(
            f"| {row['ecosystem']} "
            f"| {row['scalar_units_per_second']:,.0f} "
            f"| {row['batch_units_per_second']:,.0f} "
            f"| {row['speedup']:.1f}x |"
        )
    return "\n".join(lines)


def render_shard_executor(payload: dict) -> str:
    """The thread-vs-process shard campaign table from the engine dump."""
    section = payload["shard_executor"]
    thread = section["thread_seconds"]
    lines = [
        "| executor | median wall (s) | quartiles (s) | vs thread |",
        "|---|---|---|---|",
    ]
    for executor in ("thread", "process"):
        seconds = section[f"{executor}_seconds"]
        q1, q3 = section[f"{executor}_quartiles"]
        lines.append(
            f"| {executor} | {seconds:.2f} | {q1:.2f}–{q3:.2f} "
            f"| {thread / seconds:.2f}x |"
        )
    return "\n".join(lines)


def render_serve_latency(payload: dict) -> str:
    """The ``docs/serve.md`` per-phase service latency table."""
    lines = [
        "| phase | requests | p50 (ms) | p99 (ms) | req/s |",
        "|---|---|---|---|---|",
    ]
    for row in payload["latency"]["rows"]:
        lines.append(
            f"| {row['phase']} | {row['requests']:,} "
            f"| {row['p50_ms']:.2f} | {row['p99_ms']:.2f} "
            f"| {row['rps']:,.0f} |"
        )
    return "\n".join(lines)


def render_serve_fairness(payload: dict) -> str:
    """Per-tenant completion share under the abusive-tenant trace."""
    section = payload["fairness"]
    lines = [
        "| tenant | weight | submitted share | served share (fair window) |",
        "|---|---|---|---|",
    ]
    for tenant, row in sorted(section["tenants"].items()):
        marker = " (abusive)" if tenant == section["abusive"] else ""
        lines.append(
            f"| {tenant}{marker} | {row['weight']:.1f} "
            f"| {row['submitted_share']:.0%} | {row['served_share']:.0%} |"
        )
    lines.append("")
    lines.append(
        f"Abusive tenant bounded to its weight share: "
        f"**{'yes' if section['bounded'] else 'NO'}**."
    )
    return "\n".join(lines)


@dataclass(frozen=True)
class BenchTable:
    """One marker-delimited table: where it lives and how to rebuild it."""

    key: str
    """Registry id (stable; used in checker messages)."""
    doc: str
    """Repo-relative path of the markdown page carrying the table."""
    begin: str
    """Opening marker line (an HTML comment, written verbatim)."""
    end: str
    """Closing marker line."""
    results: str
    """Repo-relative path of the ``BENCH_*.json`` dump feeding the table."""
    section: str
    """Top-level dump section the renderer reads."""
    render: Callable[[dict], str]
    """Pure function from the full dump payload to the table's markdown."""


def bench_tables() -> tuple[BenchTable, ...]:
    """Every registered bench table (the checker sweeps exactly these)."""
    return (
        BenchTable(
            key="shard-throughput",
            doc="docs/scaling.md",
            begin="<!-- shard-bench:rows:begin -->",
            end="<!-- shard-bench:rows:end -->",
            results="results/BENCH_shard.json",
            section="throughput",
            render=render_shard_throughput,
        ),
        BenchTable(
            key="shard-generation",
            doc="docs/scaling.md",
            begin="<!-- shard-bench:generation:begin -->",
            end="<!-- shard-bench:generation:end -->",
            results="results/BENCH_shard.json",
            section="generation",
            render=render_shard_generation,
        ),
        BenchTable(
            key="engine-shard-executor",
            doc="docs/scaling.md",
            begin="<!-- engine-bench:shard-executor:begin -->",
            end="<!-- engine-bench:shard-executor:end -->",
            results="results/BENCH_engine.json",
            section="shard_executor",
            render=render_shard_executor,
        ),
        BenchTable(
            key="serve-latency",
            doc="docs/serve.md",
            begin="<!-- serve-bench:latency:begin -->",
            end="<!-- serve-bench:latency:end -->",
            results="results/BENCH_serve.json",
            section="latency",
            render=render_serve_latency,
        ),
        BenchTable(
            key="serve-fairness",
            doc="docs/serve.md",
            begin="<!-- serve-bench:fairness:begin -->",
            end="<!-- serve-bench:fairness:end -->",
            results="results/BENCH_serve.json",
            section="fairness",
            render=render_serve_fairness,
        ),
    )


def table_in_doc(table: BenchTable, text: str) -> str | None:
    """The doc's current table body between the markers, or ``None``.

    ``None`` distinguishes "the page does not carry the markers at all"
    (a registration/doc mismatch) from an empty-but-present table.
    """
    if table.begin not in text or table.end not in text:
        return None
    body = text.split(table.begin, 1)[1].split(table.end, 1)[0]
    return body.strip("\n")


def refresh_doc(table: BenchTable, root: Path) -> bool:
    """Rewrite ``table`` in its doc from the committed dump.

    Returns whether the doc changed.  A missing dump, missing section,
    missing doc or missing markers is a quiet no-op — the benchmarks call
    this opportunistically and the *checker* is the component that turns
    those states into errors.
    """
    results = root / table.results
    doc = root / table.doc
    if not results.exists() or not doc.exists():
        return False
    try:
        payload = json.loads(results.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return False
    if table.section not in payload:
        return False
    text = doc.read_text(encoding="utf-8")
    current = table_in_doc(table, text)
    if current is None:
        return False
    rendered = table.render(payload)
    if current == rendered:
        return False
    head, rest = text.split(table.begin, 1)
    _, tail = rest.split(table.end, 1)
    doc.write_text(
        head + table.begin + "\n" + rendered + "\n" + table.end + tail,
        encoding="utf-8",
    )
    return True
