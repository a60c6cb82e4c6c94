"""R12 (extension) — per-vulnerability-type results and the aggregation trap.

Campaign reports in the field break results down by vulnerability class.
This experiment regenerates that breakdown for the reference campaign and
then demonstrates the aggregation problem the metrics-selection literature
warns about: macro-averaging (classes weighted equally) and micro-averaging
(sites weighted equally) can *order tools differently*, so even after the
metric is chosen, the aggregation is one more choice a benchmark must make
deliberately.
"""

from __future__ import annotations

import math

from repro.bench.engine.context import RunContext, ensure_context
from repro.bench.engine.spec import ExperimentSpec, register_spec
from repro.bench.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.bench.pertype import campaign_breakdowns, macro_average, micro_average
from repro.metrics import definitions
from repro.metrics.base import Metric
from repro.reporting.tables import format_table
from repro.stats.rank import kendall_tau

__all__ = ["run", "SPEC"]


def run(
    seed: int = DEFAULT_SEED,
    n_units: int = 600,
    metric: Metric = definitions.F1,
    context: RunContext | None = None,
) -> ExperimentResult:
    """Break the reference campaign down by class and compare aggregations."""
    ctx = ensure_context(context, seed=seed)
    campaign = ctx.campaign(n_units=n_units, seed=seed)
    with ctx.span("r12.breakdowns", tools=len(campaign.results)):
        breakdowns = campaign_breakdowns(campaign)
    ctx.metrics.inc("experiment.R12.units_processed", len(breakdowns))

    # Table 1: per-class metric values per tool.
    types = next(iter(breakdowns.values())).types
    rows = []
    for tool_name in campaign.tool_names:
        breakdown = breakdowns[tool_name]
        per_type = breakdown.metric_by_type(metric)
        rows.append([tool_name] + [per_type.get(t, float("nan")) for t in types])
    per_type_table = format_table(
        headers=["tool", *[t.value for t in types]],
        rows=rows,
        title=f"{metric.name} per vulnerability class",
    )

    # Table 2: macro vs micro aggregation.
    macro: dict[str, float] = {}
    micro: dict[str, float] = {}
    agg_rows = []
    for tool_name in campaign.tool_names:
        breakdown = breakdowns[tool_name]
        macro[tool_name] = macro_average(breakdown, metric)
        micro[tool_name] = micro_average(breakdown, metric)
        agg_rows.append([tool_name, macro[tool_name], micro[tool_name]])
    aggregation_table = format_table(
        headers=["tool", "macro average", "micro average"],
        rows=agg_rows,
        title=f"Macro vs micro {metric.name}",
    )

    names = campaign.tool_names
    macro_scores = [macro[n] if math.isfinite(macro[n]) else -math.inf for n in names]
    micro_scores = [micro[n] if math.isfinite(micro[n]) else -math.inf for n in names]
    tau = kendall_tau(macro_scores, micro_scores)
    macro_winner = names[macro_scores.index(max(macro_scores))]
    micro_winner = names[micro_scores.index(max(micro_scores))]
    summary = format_table(
        headers=["aggregation", "winner", "Kendall tau macro-vs-micro"],
        rows=[["macro", macro_winner, tau], ["micro", micro_winner, tau]],
        title="The aggregation choice is a metric choice too",
    )

    return ExperimentResult(
        experiment_id="R12",
        title="Per-type breakdown and aggregation",
        sections={
            "per_type": per_type_table,
            "aggregation": aggregation_table,
            "summary": summary,
        },
        data={
            "breakdowns": breakdowns,
            "macro": macro,
            "micro": micro,
            "tau_macro_micro": tau,
            "macro_winner": macro_winner,
            "micro_winner": micro_winner,
        },
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="R12",
        title="Per-type breakdown and aggregation",
        artifact="extension",
        runner=run,
        depends_on=("R3",),
        cache_defaults={"n_units": 600},
    )
)
