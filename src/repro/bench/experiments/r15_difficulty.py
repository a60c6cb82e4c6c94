"""R15 (extension) — validating the workload's difficulty model.

The generator stamps every site with a difficulty score (propagation depth,
cross-class sanitizer noise) that the detection tools are supposed to feel.
This experiment checks that the model actually bites: per difficulty bin,
the recall of depth-limited and payload-driven tools falls, while the
flow-insensitive scanner stays flat — evidence that "hard" sites are hard
for the right reasons, not by fiat.
"""

from __future__ import annotations

import numpy as np

from repro.bench.engine.context import RunContext, campaign_codec, ensure_context
from repro.bench.engine.spec import ExperimentSpec, register_spec
from repro.bench.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.reporting.figures import ascii_chart
from repro.reporting.tables import format_table

__all__ = ["run", "SPEC"]

_BINS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.01))
_TRACKED = ("SA-Grep", "SA-Deep", "PT-Spider", "VS-Gamma")


def _difficulty_workload(seed: int, n_units: int):
    from repro.workload.generator import WorkloadConfig, generate_workload

    return generate_workload(
        WorkloadConfig(
            n_units=n_units,
            prevalence=0.2,
            chain_length_range=(1, 8),
            seed=seed,
            name="difficulty",
        )
    )


def run(
    seed: int = DEFAULT_SEED,
    n_units: int = 900,
    context: RunContext | None = None,
) -> ExperimentResult:
    """Per-difficulty-bin recall for representative tools."""
    ctx = ensure_context(context, seed=seed)
    workload = ctx.artifact(
        "workload",
        "difficulty",
        {"seed": seed, "n_units": n_units},
        lambda: _difficulty_workload(seed, n_units),
    )

    def _campaign():
        from repro.bench.campaign import run_campaign
        from repro.tools.suite import reference_suite

        return run_campaign(reference_suite(seed=seed), workload)

    campaign = ctx.artifact(
        "campaign",
        "difficulty",
        {"seed": seed, "n_units": n_units},
        _campaign,
        codec=campaign_codec(),
    )

    # Vulnerable site rows per difficulty bin (bins are half-open).
    difficulty = np.array(
        [workload.profiles[site].difficulty for site in workload.truth.sites]
    )
    bins = {
        (low, high): np.flatnonzero(
            campaign.vulnerable & (low <= difficulty) & (difficulty < high)
        )
        for low, high in _BINS
    }

    recalls: dict[str, list[float]] = {}
    rows = []
    series: dict[str, list[tuple[float, float]]] = {}
    for tool_name in _TRACKED:
        flags = campaign.result_for(tool_name).flags
        per_bin = []
        points = []
        for (low, high), sites in bins.items():
            if not sites.size:
                per_bin.append(float("nan"))
                continue
            recall = int(np.count_nonzero(flags[sites])) / sites.size
            per_bin.append(recall)
            points.append(((low + high) / 2, recall))
        recalls[tool_name] = per_bin
        series[tool_name] = points
        rows.append([tool_name, *per_bin])

    table = format_table(
        headers=["tool"] + [f"difficulty {low:.2f}-{high:.2f}" for low, high in _BINS],
        rows=rows,
        title=(
            f"Recall per difficulty bin "
            f"({sum(s.size for s in bins.values())} vulnerable sites)"
        ),
    )
    chart = ascii_chart(
        series,
        title="Recall vs site difficulty",
        x_label="difficulty (bin midpoint)",
        y_label="recall",
    )
    bin_sizes = {
        f"{low:.2f}-{high:.2f}": int(sites.size) for (low, high), sites in bins.items()
    }
    return ExperimentResult(
        experiment_id="R15",
        title="Difficulty model validation",
        sections={"recall_by_bin": table, "chart": chart},
        data={"recalls": recalls, "bin_sizes": bin_sizes},
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="R15",
        title="Difficulty model validation",
        artifact="extension",
        runner=run,
        cache_defaults={"n_units": 900},
    )
)
