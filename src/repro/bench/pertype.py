"""Per-vulnerability-type campaign analysis.

Real benchmarking campaigns never report one number per tool: they break
results down by vulnerability class (SQL injection vs. XPath injection
detection are different skills) and then face the *aggregation problem* —
macro-averaging (every class counts equally) and micro-averaging (every
site counts equally) can order tools differently, which is itself a metric
selection question.  This module provides the breakdown and both
aggregations.

Breakdowns are array code over the campaign's per-site columns: each
class's sites are a mask over :attr:`~repro.bench.campaign.CampaignResult.
vuln_types`, and each tool's per-class matrix comes from its flags under
that mask.  Classes appear in the order their first site does, the order
:func:`macro_average` sums in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.bench.campaign import TAXONOMY, CampaignResult, ToolResult, flag_confusion
from repro.errors import ConfigurationError
from repro.metrics.base import Metric
from repro.metrics.confusion import ConfusionMatrix
from repro.workload.taxonomy import VulnerabilityType

__all__ = [
    "PerTypeBreakdown",
    "breakdown_report",
    "campaign_breakdowns",
    "macro_average",
    "micro_average",
]


@dataclass(frozen=True)
class PerTypeBreakdown:
    """One tool's confusion matrices, split by vulnerability class.

    Classes with no analysis sites in the workload are absent from the
    mapping (there is nothing to score).
    """

    tool_name: str
    by_type: dict[VulnerabilityType, ConfusionMatrix]

    def __post_init__(self) -> None:
        if not self.by_type:
            raise ConfigurationError("breakdown must cover at least one class")

    @property
    def types(self) -> list[VulnerabilityType]:
        """Covered vulnerability classes, in taxonomy order."""
        return [t for t in VulnerabilityType if t in self.by_type]

    def matrix_for(self, vuln_type: VulnerabilityType) -> ConfusionMatrix:
        """The confusion matrix of one class."""
        try:
            return self.by_type[vuln_type]
        except KeyError:
            raise ConfigurationError(
                f"no sites of class {vuln_type} in this breakdown"
            ) from None

    def metric_by_type(self, metric: Metric) -> dict[VulnerabilityType, float]:
        """``metric`` per class (``nan`` where undefined)."""
        return {t: metric.value_or_nan(cm) for t, cm in self.by_type.items()}


def _class_masks(
    campaign: CampaignResult,
) -> list[tuple[VulnerabilityType, np.ndarray]]:
    """Each present class with its site mask, in first-appearance order."""
    codes, first = np.unique(campaign.vuln_types, return_index=True)
    order = codes[np.argsort(first)]
    return [(TAXONOMY[code], campaign.vuln_types == code) for code in order.tolist()]


def _breakdown(
    result: ToolResult,
    vulnerable: np.ndarray,
    masks: list[tuple[VulnerabilityType, np.ndarray]],
) -> PerTypeBreakdown:
    flags = result.flags
    by_type = {
        vuln_type: flag_confusion(flags[mask], vulnerable[mask])
        for vuln_type, mask in masks
    }
    return PerTypeBreakdown(tool_name=result.tool_name, by_type=by_type)


def breakdown_report(result: ToolResult, campaign: CampaignResult) -> PerTypeBreakdown:
    """Split one tool's outcome in ``campaign`` by vulnerability class."""
    return _breakdown(result, campaign.vulnerable, _class_masks(campaign))


def macro_average(breakdown: PerTypeBreakdown, metric: Metric) -> float:
    """Unweighted mean of the per-class metric values.

    Every vulnerability class counts equally, however rare — the choice a
    benchmark makes when the *coverage of classes* is the product promise.
    Classes where the metric is undefined are skipped; if it is undefined
    everywhere the result is ``nan``.
    """
    values = [
        value
        for value in breakdown.metric_by_type(metric).values()
        if math.isfinite(value)
    ]
    if not values:
        return float("nan")
    return sum(values) / len(values)


def micro_average(breakdown: PerTypeBreakdown, metric: Metric) -> float:
    """Metric of the pooled confusion matrix.

    Every analysis *site* counts equally, so dominant classes dominate — the
    choice when total triage economics is the promise.  For any metric this
    equals the campaign-level value, by construction.
    """
    pooled: ConfusionMatrix | None = None
    for cm in breakdown.by_type.values():
        pooled = cm if pooled is None else pooled + cm
    assert pooled is not None  # __post_init__ guarantees a non-empty mapping
    return metric.value_or_nan(pooled)


def campaign_breakdowns(campaign: CampaignResult) -> dict[str, PerTypeBreakdown]:
    """Per-type breakdowns for every tool in a campaign."""
    masks = _class_masks(campaign)
    return {
        result.tool_name: _breakdown(result, campaign.vulnerable, masks)
        for result in campaign.results
    }
