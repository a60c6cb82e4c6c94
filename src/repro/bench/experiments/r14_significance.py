"""R14 (extension) — statistical significance of tool differences.

A benchmark table without uncertainty quantification invites over-reading.
This experiment computes, for every tool pair of the reference campaign,
McNemar's exact test over the paired per-site outcomes, plus Wilson
intervals for each tool's recall and precision — the statistical apparatus a
responsible benchmark report attaches to the numbers the earlier
experiments produce.
"""

from __future__ import annotations

from repro.bench.engine.context import RunContext, ensure_context
from repro.bench.engine.spec import ExperimentSpec, register_spec
from repro.bench.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.metrics.batch import ConfusionBatch, safe_div_array
from repro.reporting.tables import format_table
from repro.stats.significance import mcnemar_exact, paired_outcomes, wilson_interval

__all__ = ["run", "SPEC"]


def run(
    seed: int = DEFAULT_SEED,
    n_units: int = 600,
    alpha: float = 0.05,
    context: RunContext | None = None,
) -> ExperimentResult:
    """McNemar matrix + Wilson intervals for the reference campaign."""
    ctx = ensure_context(context, seed=seed)
    campaign = ctx.campaign(n_units=n_units, seed=seed)
    names = campaign.tool_names

    p_values: dict[tuple[str, str], float] = {}
    matrix_rows = []
    significant_pairs = 0
    total_pairs = 0
    with ctx.span("r14.mcnemar_matrix", tools=len(names)):
        for a in names:
            row: list[object] = [a]
            for b in names:
                if a == b:
                    row.append(float("nan"))
                    continue
                key = (a, b)
                if (b, a) in p_values:
                    p_values[key] = p_values[(b, a)]
                else:
                    outcomes = paired_outcomes(
                        campaign.result_for(a),
                        campaign.result_for(b),
                        campaign.vulnerable,
                    )
                    p_values[key] = mcnemar_exact(outcomes)
                    total_pairs += 1
                    if p_values[key] < alpha:
                        significant_pairs += 1
                row.append(p_values[key])
            matrix_rows.append(row)
    ctx.metrics.inc("experiment.R14.units_processed", total_pairs)
    mcnemar_table = format_table(
        headers=["p-value", *names],
        rows=matrix_rows,
        title=f"McNemar exact test between tool pairs (alpha = {alpha:g})",
    )

    # Point estimates for all tools in one vectorized pass (elementwise
    # identical to the per-matrix properties); Wilson bounds stay scalar —
    # they are O(#tools) and exercise the exact integer path.
    batch = ConfusionBatch.from_matrices([r.confusion for r in campaign.results])
    recalls = batch.tpr
    precisions = safe_div_array(batch.tp, batch.predicted_positives)
    interval_rows = []
    for index, result in enumerate(campaign.results):
        cm = result.confusion
        recall_low, recall_high = wilson_interval(int(cm.tp), int(cm.positives))
        if cm.predicted_positives > 0:
            precision_low, precision_high = wilson_interval(
                int(cm.tp), int(cm.predicted_positives)
            )
        else:
            precision_low = precision_high = float("nan")
        interval_rows.append(
            [
                result.tool_name,
                float(recalls[index]),
                f"[{recall_low:.3f}, {recall_high:.3f}]",
                float(precisions[index]),
                f"[{precision_low:.3f}, {precision_high:.3f}]",
            ]
        )
    wilson_table = format_table(
        headers=["tool", "recall", "recall 95% CI", "precision", "precision 95% CI"],
        rows=interval_rows,
        title="Wilson score intervals per tool",
    )

    return ExperimentResult(
        experiment_id="R14",
        title="Statistical significance of tool differences",
        sections={"mcnemar": mcnemar_table, "wilson": wilson_table},
        data={
            "p_values": p_values,
            "significant_fraction": significant_pairs / total_pairs,
            "alpha": alpha,
        },
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="R14",
        title="Statistical significance of tool differences",
        artifact="extension",
        runner=run,
        depends_on=("R3",),
        cache_defaults={"n_units": 600, "alpha": 0.05},
    )
)
