"""Plain-text tables, ASCII figures, markdown and bench-table rendering."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.reporting.benchtables": ("BenchTable", "bench_tables", "refresh_doc"),
        "repro.reporting.figures": ("ascii_chart",),
        "repro.reporting.markdown": ("experiment_to_markdown", "format_markdown_table"),
        "repro.reporting.tables": ("format_cell", "format_table"),
    },
)
