"""Benchmark campaign: run tools over a workload and score them.

This is the procedure the paper's metrics consume: every (tool, workload)
pair yields a confusion matrix over analysis sites, from which every
candidate metric is computed.

A campaign is a set of per-site arrays in ``truth.sites`` order: each
tool's scores (the confidence it attached to a site, 0.0 where it stayed
silent) and the sites' ground-truth and vulnerability-class columns.
Confusion matrices, per-type breakdowns (:mod:`repro.bench.pertype`),
ROC/PR curves (:mod:`repro.metrics.curves`) and paired tests
(:mod:`repro.stats.significance`) are array code over them.

Two producers build that shape, and both derive every confusion matrix
through :func:`flag_confusion`:

- :func:`run_campaign` runs ``analyze`` over a materialized
  :class:`~repro.workload.Workload` and places each report's confidences
  by site index.  It accepts any tool and is the public API (R15 and R20
  use it too).
- :meth:`RunContext.campaign <repro.bench.engine.context.RunContext.campaign>`
  scores the reference campaign that R3–R7 and R12–R14 share straight
  from decoded columns, through each tool's
  :meth:`~repro.tools.base.VulnerabilityDetectionTool.site_scores`.

:func:`score_report` remains the per-report oracle the tests and the
benchmark hold both producers to.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, WorkloadError
from repro.metrics.base import Metric
from repro.metrics.confusion import ConfusionMatrix
from repro.tools.base import DetectionReport, VulnerabilityDetectionTool
from repro.workload.code_model import SinkSite
from repro.workload.generator import Workload
from repro.workload.ground_truth import GroundTruth
from repro.workload.taxonomy import VulnerabilityType

if TYPE_CHECKING:
    from repro.workload.columnar import ShardColumns

__all__ = [
    "TAXONOMY",
    "score_report",
    "flag_confusion",
    "tool_result",
    "ToolResult",
    "CampaignResult",
    "run_campaign",
]

#: The code space of :attr:`CampaignResult.vuln_types`: a site's class is
#: stored as its index in this tuple (taxonomy order).
TAXONOMY: tuple[VulnerabilityType, ...] = tuple(VulnerabilityType)
_TAXONOMY_CODE = {vuln_type: code for code, vuln_type in enumerate(TAXONOMY)}


def score_report(report: DetectionReport, truth: GroundTruth) -> ConfusionMatrix:
    """Score a tool report against ground truth, site by site.

    Reported sites that do not exist in the workload are a tool bug and raise
    rather than silently inflating FP counts.
    """
    site_set = set(truth.sites)
    unknown = report.flagged_sites - site_set
    if unknown:
        raise ConfigurationError(
            f"tool {report.tool_name!r} reported sites absent from the workload: "
            f"{sorted(unknown)[:3]}"
        )
    flagged = report.flagged_sites
    tp = fp = fn = tn = 0
    for site in truth.sites:
        vulnerable = site in truth.vulnerable
        reported = site in flagged
        if vulnerable and reported:
            tp += 1
        elif vulnerable:
            fn += 1
        elif reported:
            fp += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def flag_confusion(flags: np.ndarray, vulnerable: np.ndarray) -> ConfusionMatrix:
    """The confusion matrix of per-site ``flags`` against ``vulnerable``.

    Both are aligned bool arrays; the counts are Python ints, exactly the
    tallies :func:`score_report` makes site by site.
    """
    n_sites = int(flags.shape[0])
    tp = int(np.count_nonzero(flags & vulnerable))
    flagged = int(np.count_nonzero(flags))
    positives = int(np.count_nonzero(vulnerable))
    return ConfusionMatrix(
        tp=tp,
        fp=flagged - tp,
        fn=positives - tp,
        tn=n_sites - flagged - positives + tp,
    )


@dataclass(frozen=True, eq=False)
class ToolResult:
    """One tool's outcome on one workload."""

    tool_name: str
    scores: np.ndarray
    """float64 per site, in ``truth.sites`` order: the confidence the tool
    attached to the site, 0.0 where it did not flag it."""
    confusion: ConfusionMatrix

    @property
    def flags(self) -> np.ndarray:
        """bool per site: did the tool flag it?"""
        return self.scores > 0.0

    def metric_value(self, metric: Metric) -> float:
        """Value of ``metric`` for this tool (``nan`` if undefined)."""
        return metric.value_or_nan(self.confusion)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ToolResult):
            return NotImplemented
        return (
            self.tool_name == other.tool_name
            and self.confusion == other.confusion
            and np.array_equal(self.scores, other.scores)
        )


def tool_result(
    tool_name: str, scores: np.ndarray, vulnerable: np.ndarray
) -> ToolResult:
    """A tool's result from its per-site ``scores`` (0.0 = not flagged)."""
    return ToolResult(
        tool_name=tool_name,
        scores=scores,
        confusion=flag_confusion(scores > 0.0, vulnerable),
    )


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """Outcome of benchmarking a tool suite on one workload."""

    workload_name: str
    results: tuple[ToolResult, ...]
    vulnerable: np.ndarray
    """bool per site, in ``truth.sites`` order: the oracle verdict."""
    vuln_types: np.ndarray
    """int8 per site, in ``truth.sites`` order: the index of the site's
    vulnerability class in :data:`TAXONOMY`."""
    ecosystem: str = "web-services"
    """Ecosystem of the workload the campaign ran on (identity only; the
    default keeps campaigns predating ecosystems loadable unchanged)."""

    def __post_init__(self) -> None:
        names = [r.tool_name for r in self.results]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate tool names in campaign")
        shape = self.vulnerable.shape
        if self.vuln_types.shape != shape or any(
            r.scores.shape != shape for r in self.results
        ):
            raise ConfigurationError(
                f"campaign columns disagree on the number of sites "
                f"(vulnerable {shape}, types {self.vuln_types.shape})"
            )

    @classmethod
    def from_columns(
        cls, columns: "ShardColumns", results: Sequence[ToolResult]
    ) -> "CampaignResult":
        """The campaign of ``results`` scored over ``columns``' site rows.

        Site rows are in generation order, which is ``truth.sites`` order
        of the materialized workload.
        """
        return cls(
            workload_name=columns.config.name,
            results=tuple(results),
            vulnerable=columns.site_vulnerable,
            vuln_types=columns.site_taxonomy_type.astype(np.int8),
            ecosystem=columns.config.ecosystem,
        )

    @property
    def n_sites(self) -> int:
        """Total number of analysis sites."""
        return int(self.vulnerable.shape[0])

    @property
    def prevalence(self) -> float:
        """Fraction of sites that are vulnerable."""
        if not self.n_sites:
            raise WorkloadError("empty campaign has no prevalence")
        return int(np.count_nonzero(self.vulnerable)) / self.n_sites

    @property
    def tool_names(self) -> list[str]:
        """Tool names in campaign order."""
        return [r.tool_name for r in self.results]

    def result_for(self, tool_name: str) -> ToolResult:
        """Look up one tool's result."""
        for result in self.results:
            if result.tool_name == tool_name:
                return result
        raise ConfigurationError(
            f"no result for tool {tool_name!r}; have {self.tool_names}"
        )

    def confusion_for(self, tool_name: str) -> ConfusionMatrix:
        """Confusion matrix of one tool."""
        return self.result_for(tool_name).confusion

    def metric_values(self, metric: Metric) -> dict[str, float]:
        """``metric`` evaluated for every tool (``nan`` where undefined)."""
        return {r.tool_name: r.metric_value(metric) for r in self.results}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignResult):
            return NotImplemented
        return (
            self.workload_name == other.workload_name
            and self.ecosystem == other.ecosystem
            and self.results == other.results
            and np.array_equal(self.vulnerable, other.vulnerable)
            and np.array_equal(self.vuln_types, other.vuln_types)
        )


def _report_scores(
    report: DetectionReport, rows: dict[SinkSite, int]
) -> np.ndarray:
    """``report``'s confidences placed at their sites' rows."""
    scores = np.zeros(len(rows))
    unknown = []
    for detection in report.detections:
        row = rows.get(detection.site)
        if row is None:
            unknown.append(detection.site)
        else:
            scores[row] = detection.confidence
    if unknown:
        raise ConfigurationError(
            f"tool {report.tool_name!r} reported sites absent from the workload: "
            f"{sorted(unknown)[:3]}"
        )
    return scores


def run_campaign(
    tools: Sequence[VulnerabilityDetectionTool], workload: Workload
) -> CampaignResult:
    """Run every tool over ``workload`` and score the reports."""
    if not tools:
        raise ConfigurationError("campaign needs at least one tool")
    truth = workload.truth
    rows = {site: row for row, site in enumerate(truth.sites)}
    vulnerable = np.fromiter(
        (site in truth.vulnerable for site in truth.sites),
        dtype=bool,
        count=len(rows),
    )
    vuln_types = np.fromiter(
        (_TAXONOMY_CODE[site.vuln_type] for site in truth.sites),
        dtype=np.int8,
        count=len(rows),
    )
    results = tuple(
        tool_result(tool.name, _report_scores(tool.analyze(workload), rows), vulnerable)
        for tool in tools
    )
    return CampaignResult(
        workload_name=workload.name,
        results=results,
        vulnerable=vulnerable,
        vuln_types=vuln_types,
        ecosystem=workload.config.ecosystem,
    )
