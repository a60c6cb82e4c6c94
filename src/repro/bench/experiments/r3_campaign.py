"""R3 — the reference benchmarking campaign.

The raw material of the metric-value and ranking tables: the reference tool
suite run over the reference workload, reported as per-tool confusion
counts.  This mirrors the "benchmark campaign results" table of the original
study (tools x detected/false-alarmed/missed).
"""

from __future__ import annotations

from repro.bench.campaign import CampaignResult
from repro.bench.engine.context import RunContext, ensure_context
from repro.bench.engine.spec import ExperimentSpec, register_spec
from repro.bench.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.reporting.tables import format_table
from repro.workload.generator import Workload, WorkloadConfig, generate_workload

__all__ = ["reference_config", "reference_workload", "run", "SPEC"]


def reference_config(seed: int = DEFAULT_SEED, n_units: int = 600) -> WorkloadConfig:
    """The config of the workload every campaign-based experiment shares."""
    return WorkloadConfig(
        n_units=n_units,
        sites_per_unit=(1, 3),
        prevalence=0.15,
        decoy_fraction=0.5,
        seed=seed,
        name="reference",
    )


def reference_workload(seed: int = DEFAULT_SEED, n_units: int = 600) -> Workload:
    """The workload every campaign-based experiment shares."""
    return generate_workload(reference_config(seed=seed, n_units=n_units))


def run(
    seed: int = DEFAULT_SEED,
    n_units: int = 600,
    context: RunContext | None = None,
) -> ExperimentResult:
    """Run the reference campaign and render the raw-results table."""
    ctx = ensure_context(context, seed=seed)
    campaign: CampaignResult = ctx.campaign(n_units=n_units, seed=seed)

    ctx.metrics.inc("experiment.R3.units_processed", len(campaign.results))
    rows = []
    for result in campaign.results:
        cm = result.confusion
        rows.append(
            [
                result.tool_name,
                int(cm.tp),
                int(cm.fp),
                int(cm.fn),
                int(cm.tn),
                int(cm.predicted_positives),
            ]
        )
    table = format_table(
        headers=["tool", "TP", "FP", "FN", "TN", "reported"],
        rows=rows,
        title=(
            f"Campaign raw results — workload {campaign.workload_name!r}: "
            f"{campaign.n_sites} sites, prevalence {campaign.prevalence:.3f}"
        ),
    )
    return ExperimentResult(
        experiment_id="R3",
        title="Reference benchmarking campaign",
        sections={"raw_results": table},
        data={"campaign": campaign},
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="R3",
        title="Reference benchmarking campaign",
        artifact="table",
        runner=run,
        cache_defaults={"n_units": 600},
    )
)
