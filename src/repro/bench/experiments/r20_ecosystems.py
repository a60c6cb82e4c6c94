"""R20 — cross-ecosystem metric adequacy (extension).

The paper's analysis fixes one workload regime: vulnerable web services.
The ecosystem registry (:mod:`repro.workload.ecosystems`) parameterizes
that choice, so this experiment asks the natural follow-up: **does the
winning metric survive a change of ecosystem?**  For each registered
ecosystem we generate its workload, run its tool-family suite, and measure
every candidate metric's adequacy the way R8 does — Kendall's tau between
the metric's ranking of the suite (computed on the *benchmark* campaign)
and the ranking by expected field cost (computed at the scenario's field
prevalence, with each tool's empirical operating point carried over).

The winner grid (scenario x ecosystem) makes the paper's thesis concrete
at a new axis: a metric adequate for web services can be beaten on an
SCA-shaped dependency corpus or a high-prevalence IaC scan, purely because
prevalence and suite composition moved.  ``flips`` lists every (scenario,
ecosystem) cell whose winner differs from the web-services baseline.
"""

from __future__ import annotations

import math

from repro.bench.campaign import CampaignResult, run_campaign
from repro.bench.engine.context import RunContext, campaign_codec, ensure_context
from repro.bench.engine.spec import ExperimentSpec, register_spec
from repro.bench.experiments.base import DEFAULT_SEED, ExperimentResult
from repro.metrics.confusion import ConfusionMatrix
from repro.metrics.registry import default_registry
from repro.reporting.tables import format_grid, format_table
from repro.scenarios.scenarios import canonical_scenarios
from repro.stats.rank import kendall_tau, order_by_score
from repro.tools.families import suite_for_ecosystem
from repro.workload.ecosystems import (
    DEFAULT_ECOSYSTEM,
    EcosystemProfile,
    all_ecosystems,
)
from repro.workload.generator import Workload, generate_workload

__all__ = ["ecosystem_campaign", "run", "SPEC"]


def ecosystem_campaign(
    profile: EcosystemProfile,
    seed: int = DEFAULT_SEED,
    n_units: int = 400,
    context: RunContext | None = None,
) -> tuple[Workload, CampaignResult]:
    """One ecosystem's benchmark: its workload under its family suite.

    Both artifacts are memoized in the run context's store, keyed by
    ecosystem name, seed and size; the campaign also persists to
    ``--cache-dir``, while the workload is regenerated from its seed, which
    is cheaper than loading it back.
    """
    ctx = ensure_context(context, seed=seed)
    config = profile.workload_config(
        n_units=n_units, seed=seed, name=f"eco-{profile.name}"
    )

    def compute_workload() -> Workload:
        return generate_workload(config)

    workload = ctx.artifact(
        "workload",
        f"eco-{profile.name}",
        {"seed": seed, "n_units": n_units, "ecosystem": profile.name},
        compute_workload,
    )

    def compute_campaign() -> CampaignResult:
        return run_campaign(suite_for_ecosystem(profile, seed=seed), workload)

    campaign = ctx.artifact(
        "campaign",
        f"eco-{profile.name}",
        {"seed": seed, "n_units": n_units, "ecosystem": profile.name},
        compute_campaign,
        codec=campaign_codec(),
    )
    return workload, campaign


def _field_matrix(
    confusion: ConfusionMatrix, prevalence: float, total: float
) -> ConfusionMatrix:
    """The tool's expected matrix at the scenario's field prevalence.

    The tool's empirical operating point (tpr, fpr) is read off its
    benchmark confusion matrix and replayed against a field workload of
    ``total`` sites at ``prevalence`` — the same construction R8's sampled
    pools use, but anchored in measured tool behaviour.
    """
    positives = confusion.tp + confusion.fn
    negatives = confusion.fp + confusion.tn
    tpr = confusion.tp / positives if positives else 0.0
    fpr = confusion.fp / negatives if negatives else 0.0
    return ConfusionMatrix.from_rates(
        tpr, fpr, prevalence * total, (1.0 - prevalence) * total
    )


def run(
    seed: int = DEFAULT_SEED,
    n_units: int = 400,
    context: RunContext | None = None,
) -> ExperimentResult:
    """Compute per-(scenario, ecosystem) metric winners and their flips."""
    ctx = ensure_context(context, seed=seed)
    registry = default_registry()
    scenarios = canonical_scenarios()
    profiles = all_ecosystems()

    eco_rows = []
    campaigns: dict[str, CampaignResult] = {}
    totals: dict[str, float] = {}
    for profile in profiles:
        workload, campaign = ecosystem_campaign(
            profile, seed=seed, n_units=n_units, context=ctx
        )
        campaigns[profile.name] = campaign
        totals[profile.name] = float(workload.n_sites)
        ctx.metrics.inc("experiment.R20.ecosystems_run")
        eco_rows.append(
            [
                profile.name,
                profile.prevalence,
                workload.prevalence,
                workload.n_sites,
                len(campaign.results),
                ", ".join(profile.tool_families),
            ]
        )

    # Adequacy per (scenario, ecosystem): rank the suite by each metric on
    # the benchmark campaign, against the expected-cost ranking in the field.
    winners: dict[str, dict[str, str]] = {}
    taus: dict[str, dict[str, dict[str, float]]] = {}
    for scenario in scenarios:
        field_low, field_high = scenario.prevalence_range
        field_prevalence = (field_low + field_high) / 2.0
        winners[scenario.key] = {}
        taus[scenario.key] = {}
        for profile in profiles:
            campaign = campaigns[profile.name]
            bench = [result.confusion for result in campaign.results]
            field = [
                _field_matrix(cm, field_prevalence, totals[profile.name])
                for cm in bench
            ]
            true_scores = [-scenario.cost.expected_cost(cm) for cm in field]
            per_metric: dict[str, float] = {}
            for metric in registry:
                scores = [
                    g if math.isfinite(g := metric.goodness(cm)) else -math.inf
                    for cm in bench
                ]
                per_metric[metric.symbol] = kendall_tau(scores, true_scores)
            symbols = list(per_metric)
            ordered = order_by_score(
                symbols,
                [
                    per_metric[s] if math.isfinite(per_metric[s]) else -math.inf
                    for s in symbols
                ],
                higher_is_better=True,
            )
            winners[scenario.key][profile.name] = ordered[0]
            taus[scenario.key][profile.name] = per_metric

    flips = [
        {
            "scenario": scenario.key,
            "ecosystem": profile.name,
            "baseline": winners[scenario.key][DEFAULT_ECOSYSTEM],
            "winner": winners[scenario.key][profile.name],
        }
        for scenario in scenarios
        for profile in profiles
        if profile.name != DEFAULT_ECOSYSTEM
        and winners[scenario.key][profile.name]
        != winners[scenario.key][DEFAULT_ECOSYSTEM]
    ]

    eco_names = [profile.name for profile in profiles]
    ecosystems_table = format_table(
        headers=[
            "ecosystem", "cfg prev", "realized", "sites", "tools", "families",
        ],
        rows=eco_rows,
        title=(
            f"Ecosystem benchmarks — {n_units} units each, seed {seed}; "
            f"suites from the tool-family registry"
        ),
    )
    winner_grid = format_grid(
        row_labels=[scenario.key for scenario in scenarios],
        col_labels=eco_names,
        cells=[
            [winners[scenario.key][name] for name in eco_names]
            for scenario in scenarios
        ],
        corner="scenario",
        title=(
            "Most adequate metric per (scenario, ecosystem) — Kendall tau "
            "against expected field cost"
        ),
    )
    shift_rows = [
        [flip["scenario"], flip["ecosystem"], flip["baseline"], flip["winner"]]
        for flip in flips
    ]
    shifts_table = format_table(
        headers=["scenario", "ecosystem", "web-services pick", "local pick"],
        rows=shift_rows,
        title=(
            f"Winner shifts vs the {DEFAULT_ECOSYSTEM} baseline "
            f"({len(flips)} of "
            f"{len(scenarios) * (len(eco_names) - 1)} cells)"
        ),
    )
    ranking_rows = []
    for scenario in scenarios:
        for name in eco_names:
            per_metric = taus[scenario.key][name]
            ordered = order_by_score(
                list(per_metric),
                [
                    v if math.isfinite(v) else -math.inf
                    for v in per_metric.values()
                ],
                higher_is_better=True,
            )
            top = ordered[:3]
            ranking_rows.append(
                [
                    scenario.key,
                    name,
                    " > ".join(top),
                    per_metric[top[0]],
                ]
            )
    rankings_table = format_table(
        headers=["scenario", "ecosystem", "top-3 metrics", "best tau"],
        rows=ranking_rows,
    )

    return ExperimentResult(
        experiment_id="R20",
        title="Cross-ecosystem metric adequacy",
        sections={
            "ecosystems": ecosystems_table,
            "winner_grid": winner_grid,
            "shifts": shifts_table,
            "rankings": rankings_table,
        },
        data={
            "ecosystems": eco_names,
            "winners": winners,
            "taus": taus,
            "flips": flips,
        },
    )


SPEC = register_spec(
    ExperimentSpec(
        experiment_id="R20",
        title="Cross-ecosystem metric adequacy",
        artifact="extension",
        runner=run,
        cache_defaults={"n_units": 400},
    )
)
