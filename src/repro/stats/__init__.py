"""Statistical apparatus: rankings, rank correlation, bootstrap."""

from repro.stats.bootstrap import (
    BootstrapSummary,
    SeparationResult,
    bootstrap_metric,
    bootstrap_metric_batch,
    bootstrap_metric_scalar,
    intervals_separated,
    percentile_interval,
    separation_detail,
    separation_fraction,
)
from repro.stats.significance import (
    PairedOutcomes,
    mcnemar_exact,
    paired_outcomes,
    wilson_interval,
)
from repro.stats.rank import (
    kendall_tau,
    kendalls_w,
    order_by_score,
    rank_of,
    rank_scores,
    spearman_rho,
    top_k_overlap,
)

__all__ = [
    "PairedOutcomes",
    "mcnemar_exact",
    "paired_outcomes",
    "wilson_interval",
    "BootstrapSummary",
    "SeparationResult",
    "bootstrap_metric",
    "bootstrap_metric_batch",
    "bootstrap_metric_scalar",
    "intervals_separated",
    "percentile_interval",
    "separation_detail",
    "separation_fraction",
    "kendall_tau",
    "kendalls_w",
    "order_by_score",
    "rank_of",
    "rank_scores",
    "spearman_rho",
    "top_k_overlap",
]
