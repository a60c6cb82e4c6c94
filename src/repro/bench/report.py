"""Scenario-driven benchmark reports — the paper's guidance, operationalized.

The study's deliverable is advice: *report the metric adequate for your
scenario*.  This module turns that advice into an artifact: given a scenario
and a campaign, it selects the lead metric analytically, ranks the tools by
it with bootstrap confidence intervals, marks which gaps to the leader are
statistically real (McNemar), projects each tool's expected cost at the
scenario's field prevalence, and renders the whole thing as the report a
benchmark would actually publish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro._rng import derive_seed
from repro.bench.campaign import CampaignResult
from repro.errors import ConfigurationError
from repro.metrics.base import Metric
from repro.metrics.registry import MetricRegistry, core_candidates
from repro.reporting.tables import format_table
from repro.scenarios.adequacy import AdequacyConfig, rank_metrics_for_scenario
from repro.scenarios.scenarios import Scenario
from repro.stats.bootstrap import bootstrap_metric_batch
from repro.stats.significance import mcnemar_exact, paired_outcomes

__all__ = ["ToolVerdict", "ScenarioReport", "build_scenario_report"]


@dataclass(frozen=True, slots=True)
class ToolVerdict:
    """One tool's line in the scenario report."""

    tool_name: str
    lead_value: float
    ci_low: float
    ci_high: float
    expected_field_cost: float
    p_value_vs_leader: float

    @property
    def distinguishable_from_leader(self) -> bool:
        """Whether the gap to the leader survives McNemar at 5%."""
        return self.p_value_vs_leader < 0.05


@dataclass(frozen=True)
class ScenarioReport:
    """The publishable outcome of benchmarking a suite for one scenario."""

    scenario: Scenario
    workload_name: str
    lead_metric: Metric
    adequacy_of_lead: float
    verdicts: tuple[ToolVerdict, ...]
    """Best-first by the lead metric."""

    @property
    def recommended_tool(self) -> str:
        """The tool the scenario's economics recommend."""
        return self.verdicts[0].tool_name

    @property
    def contenders(self) -> list[str]:
        """The leader plus every tool not statistically distinguishable
        from it — the honest shortlist."""
        leader = self.verdicts[0]
        return [leader.tool_name] + [
            v.tool_name
            for v in self.verdicts[1:]
            if not v.distinguishable_from_leader
        ]

    def render(self) -> str:
        """The report as publishable text."""
        header = (
            f"Benchmark report — scenario {self.scenario.key!r} "
            f"({self.scenario.name})\n"
            f"Lead metric: {self.lead_metric.name} "
            f"[analytical adequacy {self.adequacy_of_lead:.2f}]; "
            f"miss:alarm cost "
            f"{self.scenario.cost.cost_fn:g}:{self.scenario.cost.cost_fp:g}"
        )
        rows = []
        for verdict in self.verdicts:
            rows.append(
                [
                    verdict.tool_name,
                    verdict.lead_value,
                    f"[{verdict.ci_low:.3f}, {verdict.ci_high:.3f}]",
                    verdict.expected_field_cost,
                    "-"
                    if verdict is self.verdicts[0]
                    else ("yes" if verdict.distinguishable_from_leader else "no"),
                ]
            )
        table = format_table(
            headers=[
                "tool",
                self.lead_metric.symbol,
                "95% CI",
                "expected field cost/site",
                "gap to leader is real",
            ],
            rows=rows,
        )
        shortlist = ", ".join(self.contenders)
        footer = (
            f"Recommendation: {self.recommended_tool} "
            f"(statistically tied contenders: {shortlist})"
        )
        return "\n".join([header, "", table, "", footer])


def build_scenario_report(
    scenario: Scenario,
    campaign: CampaignResult,
    registry: MetricRegistry | None = None,
    lead_metric: Metric | None = None,
    n_resamples: int = 300,
    seed: int = 0,
    adequacy_config: AdequacyConfig | None = None,
) -> ScenarioReport:
    """Assemble the scenario report for a finished campaign.

    The lead metric is selected analytically for ``scenario`` unless the
    caller pins one.  Expected field cost rebalances each tool's confusion
    matrix to the midpoint of the scenario's field prevalence range —
    *the* projection a benchmark consumer cares about when the benchmark's
    mix differs from their code base's.
    """
    registry = registry if registry is not None else core_candidates()
    if lead_metric is None:
        adequacy_config = adequacy_config or AdequacyConfig(
            n_pools=30, seed=derive_seed(seed, "report:adequacy")
        )
        ranked = rank_metrics_for_scenario(registry, scenario, adequacy_config)
        lead_metric = registry.get(ranked[0].metric_symbol)
        adequacy_of_lead = ranked[0].mean_tau
    else:
        adequacy_config = adequacy_config or AdequacyConfig(
            n_pools=30, seed=derive_seed(seed, "report:adequacy")
        )
        from repro.scenarios.adequacy import scenario_adequacy

        adequacy_of_lead = scenario_adequacy(
            lead_metric, scenario, adequacy_config
        ).mean_tau

    field_prevalence = sum(scenario.prevalence_range) / 2.0

    scored = []
    for result in campaign.results:
        goodness = lead_metric.goodness(result.confusion)
        scored.append((goodness if math.isfinite(goodness) else -math.inf, result))
    scored.sort(key=lambda pair: (-pair[0], pair[1].tool_name))
    leader = scored[0][1]

    summaries = bootstrap_metric_batch(
        lead_metric,
        [result.confusion for _, result in scored],
        [derive_seed(seed, f"report:{result.tool_name}") for _, result in scored],
        n_resamples=n_resamples,
    )
    verdicts = []
    for (_, result), summary in zip(scored, summaries):
        try:
            field_matrix = result.confusion.with_prevalence(field_prevalence)
            field_cost = scenario.cost.expected_cost(field_matrix)
        except ConfigurationError:  # degenerate: no positives or negatives
            field_cost = float("nan")
        p_value = (
            1.0
            if result is leader
            else mcnemar_exact(
                paired_outcomes(leader, result, campaign.vulnerable)
            )
        )
        verdicts.append(
            ToolVerdict(
                tool_name=result.tool_name,
                lead_value=lead_metric.value_or_nan(result.confusion),
                ci_low=summary.ci_low,
                ci_high=summary.ci_high,
                expected_field_cost=field_cost,
                p_value_vs_leader=p_value,
            )
        )
    return ScenarioReport(
        scenario=scenario,
        workload_name=campaign.workload_name,
        lead_metric=lead_metric,
        adequacy_of_lead=adequacy_of_lead,
        verdicts=tuple(verdicts),
    )
