"""R7 — discriminative power of each metric on the reference campaign.

For every candidate metric, bootstrap the campaign's per-tool values and ask:
how many tool pairs does this metric separate with non-overlapping 95%
confidence intervals?  A benchmark reports a metric so readers can *choose*
between tools; a metric that blurs most pairs at realistic workload sizes is
decorative.
"""

from __future__ import annotations

from repro._rng import derive_seed
from repro.bench.engine.context import RunContext, ensure_context
from repro.bench.engine.spec import ExperimentSpec, register_spec
from repro.bench.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.metrics.registry import MetricRegistry, core_candidates
from repro.reporting.tables import format_table
from repro.stats.bootstrap import (
    SeparationResult,
    bootstrap_metric_batch,
    separation_detail,
)

__all__ = ["run", "SPEC"]


def run(
    registry: MetricRegistry | None = None,
    seed: int = DEFAULT_SEED,
    n_units: int = 600,
    n_resamples: int = 200,
    context: RunContext | None = None,
) -> ExperimentResult:
    """Bootstrap every metric for every tool; rank metrics by separation."""
    ctx = ensure_context(context, seed=seed)
    registry = registry if registry is not None else core_candidates()
    campaign = ctx.campaign(n_units=n_units, seed=seed)

    confusions = [result.confusion for result in campaign.results]
    separation: dict[str, float] = {}
    details: dict[str, SeparationResult] = {}
    ci_rows = []
    for metric in registry:
        with ctx.span("metric.compute", metric=metric.symbol, experiment="R7"):
            # Explicit per-(metric, tool) child seeds keep the draws
            # independent of evaluation order, so thread- and
            # process-executor runs produce identical summaries.
            summaries = bootstrap_metric_batch(
                metric,
                confusions,
                [
                    derive_seed(seed, f"r7:{metric.symbol}:{result.tool_name}")
                    for result in campaign.results
                ],
                n_resamples=n_resamples,
            )
            for result, summary in zip(campaign.results, summaries):
                ci_rows.append(
                    [
                        metric.symbol,
                        result.tool_name,
                        summary.point_estimate,
                        summary.ci_low,
                        summary.ci_high,
                        summary.width,
                    ]
                )
            detail = separation_detail(summaries)
            details[metric.symbol] = detail
            # No defined pair means no separation evidence at all; rank such
            # a metric at the bottom but surface the undefined-pair count.
            separation[metric.symbol] = (
                detail.fraction if detail.n_defined_pairs else 0.0
            )
    ctx.metrics.inc("experiment.R7.units_processed", len(separation))

    ci_table = format_table(
        headers=["metric", "tool", "value", "ci low", "ci high", "ci width"],
        rows=ci_rows,
        title="Bootstrap 95% confidence intervals per metric and tool",
    )
    ranking = sorted(separation.items(), key=lambda kv: (-kv[1], kv[0]))
    separation_table = format_table(
        headers=["metric", "separated tool pairs (fraction)", "undefined pairs"],
        rows=[
            [symbol, fraction, details[symbol].n_undefined_pairs]
            for symbol, fraction in ranking
        ],
        title="Discriminative power (non-overlapping CIs over defined tool pairs)",
    )
    return ExperimentResult(
        experiment_id="R7",
        title="Discriminative power",
        sections={"intervals": ci_table, "separation": separation_table},
        data={
            "separation": separation,
            "ranking": [s for s, _ in ranking],
            "undefined_pairs": {
                symbol: detail.n_undefined_pairs for symbol, detail in details.items()
            },
        },
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="R7",
        title="Discriminative power",
        artifact="figure",
        runner=run,
        depends_on=("R3",),
        cache_defaults={"n_units": 600, "n_resamples": 200},
    )
)
