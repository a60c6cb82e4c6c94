"""R13 (extension) — threshold-free ranking metrics (AUC-ROC, AP).

Fixed-threshold metrics judge the report a tool chose to emit; ranking
metrics judge the confidence ordering underneath it.  This experiment
computes AUC-ROC and average precision for every tool on the reference
campaign, compares the rankings they induce against the fixed-threshold
families, and renders the ROC curves — the "metrics seldom used in the
benchmarking area" family taken one step further than the paper's catalog.
"""

from __future__ import annotations

import math

from repro.bench.engine.context import RunContext, ensure_context
from repro.bench.engine.spec import ExperimentSpec, register_spec
from repro.bench.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.metrics import definitions
from repro.metrics.curves import auc_roc, average_precision, roc_points
from repro.reporting.figures import ascii_chart
from repro.reporting.tables import format_table
from repro.stats.rank import kendall_tau

__all__ = ["run", "SPEC"]


def run(
    seed: int = DEFAULT_SEED,
    n_units: int = 600,
    context: RunContext | None = None,
) -> ExperimentResult:
    """Compute ranking metrics per tool and compare with fixed-threshold ones."""
    ctx = ensure_context(context, seed=seed)
    campaign = ctx.campaign(n_units=n_units, seed=seed)
    vulnerable = campaign.vulnerable

    auc: dict[str, float] = {}
    ap: dict[str, float] = {}
    roc_series: dict[str, list[tuple[float, float]]] = {}
    rows = []
    for result in campaign.results:
        with ctx.span("metric.compute", tool=result.tool_name, experiment="R13"):
            auc[result.tool_name] = auc_roc(result.scores, vulnerable)
            ap[result.tool_name] = average_precision(result.scores, vulnerable)
        ctx.metrics.inc("experiment.R13.units_processed")
        rows.append(
            [
                result.tool_name,
                auc[result.tool_name],
                ap[result.tool_name],
                definitions.F1.value_or_nan(result.confusion),
                definitions.MCC.value_or_nan(result.confusion),
            ]
        )
    values_table = format_table(
        headers=["tool", "AUC-ROC", "avg precision", "F1 (fixed)", "MCC (fixed)"],
        rows=rows,
        title="Ranking metrics vs fixed-threshold metrics per tool",
    )

    # ROC chart for a representative trio spanning the operating space.
    for name in ("SA-Grep", "SA-Deep", "PT-Spider"):
        result = campaign.result_for(name)
        roc_series[name] = roc_points(result.scores, vulnerable)
    chart = ascii_chart(
        roc_series,
        title="ROC curves (reference campaign)",
        x_label="false positive rate",
        y_label="true positive rate",
    )

    # Rank agreement between metric families.
    names = campaign.tool_names

    def scores_for(metric) -> list[float]:
        return [
            g if math.isfinite(g := metric.goodness(campaign.confusion_for(n))) else -math.inf
            for n in names
        ]

    auc_scores = [auc[n] for n in names]
    ap_scores = [ap[n] for n in names]
    tau_rows = []
    taus: dict[str, float] = {}
    for label, fixed in (
        ("F1", definitions.F1),
        ("MCC", definitions.MCC),
        ("REC", definitions.RECALL),
        ("PRE", definitions.PRECISION),
    ):
        taus[f"auc_vs_{label}"] = kendall_tau(auc_scores, scores_for(fixed))
        taus[f"ap_vs_{label}"] = kendall_tau(ap_scores, scores_for(fixed))
        tau_rows.append([label, taus[f"auc_vs_{label}"], taus[f"ap_vs_{label}"]])
    tau_table = format_table(
        headers=["fixed metric", "tau vs AUC-ROC", "tau vs avg precision"],
        rows=tau_rows,
        title="Rank agreement: ranking metrics vs fixed-threshold metrics",
    )

    return ExperimentResult(
        experiment_id="R13",
        title="Threshold-free ranking metrics",
        sections={"values": values_table, "roc": chart, "agreement": tau_table},
        data={"auc": auc, "ap": ap, "taus": taus},
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="R13",
        title="Threshold-free ranking metrics",
        artifact="extension",
        runner=run,
        depends_on=("R3",),
        cache_defaults={"n_units": 600},
    )
)
