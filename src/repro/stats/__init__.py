"""Statistical apparatus: rankings, rank correlation, bootstrap."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.stats.significance": (
            "PairedOutcomes", "mcnemar_exact", "paired_outcomes", "wilson_interval",
        ),
        "repro.stats.bootstrap": (
            "BootstrapSummary", "SeparationResult", "bootstrap_metric",
            "bootstrap_metric_batch", "bootstrap_metric_scalar", "intervals_separated",
            "percentile_interval", "separation_detail", "separation_fraction",
        ),
        "repro.stats.rank": (
            "kendall_tau", "kendalls_w", "order_by_score", "rank_of", "rank_scores",
            "spearman_rho", "top_k_overlap",
        ),
    },
)
