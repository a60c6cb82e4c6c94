"""Pattern (signature) scanner.

Models the grep-style first generation of static analyzers: it flags a sink
whenever the unit contains *any* external input, without tracking whether the
input actually flows into the sink or is sanitized on the way.  The result is
the classic high-recall / low-precision profile — a corner of the operating
space the metrics study needs populated.

One knob tightens it up: ``respect_sanitizers`` suppresses a finding when a
matching-class sanitizer appears anywhere before the sink — a purely
syntactic check, so it still gets fooled when the sanitizer sits on a
different data path (including another site in the same unit).
"""

from __future__ import annotations

import numpy as np

from repro.tools.base import (
    Detection,
    DetectionReport,
    VulnerabilityDetectionTool,
    check_confidence,
)
from repro.workload.code_model import CodeUnit, SinkSite, StatementKind
from repro.workload.columnar import ShardColumns
from repro.workload.generator import Workload
from repro.workload.taxonomy import VulnerabilityType

__all__ = ["PatternScanner"]


class PatternScanner(VulnerabilityDetectionTool):
    """Syntactic signature matcher over the mini-IR."""

    def __init__(
        self,
        name: str = "PatternScanner",
        respect_sanitizers: bool = False,
        confidence: float = 0.6,
    ) -> None:
        super().__init__(name)
        self.respect_sanitizers = respect_sanitizers
        self.confidence = check_confidence(confidence)

    def analyze(self, workload: Workload) -> DetectionReport:
        """Flag every site whose code matches a known vulnerable pattern."""
        detections: list[Detection] = []
        for unit in workload.units:
            detections.extend(self._scan_unit(unit))
        return self._report(workload, detections)

    def flag_sites(self, columns: ShardColumns) -> np.ndarray:
        """Columnar :meth:`analyze`: every site of a unit with an input.

        A unit has an INPUT head exactly when one of its sites is
        vulnerable or a decoy.  With ``respect_sanitizers``, a site whose
        own class is sanitized at or before it in the unit (its decoy
        sanitizer, or any earlier site's decoy or cross-class sanitizer)
        is dropped.
        """
        tainted_head = columns.site_vulnerable | columns.site_decoy
        unit_has_input = np.logical_or.reduceat(
            tainted_head, columns.unit_site_offset
        )
        flags = unit_has_input[columns.site_unit]
        if self.respect_sanitizers:
            flags &= ~self._sanitized_at(columns)
        return flags

    def site_scores(self, columns: ShardColumns) -> np.ndarray:
        """Columnar confidences: the base confidence at every flagged
        site, hedged by 0.55 where a same-class sanitizer precedes it."""
        scores = np.where(
            self._sanitized_at(columns), self.confidence * 0.55, self.confidence
        )
        scores[~self.flag_sites(columns)] = 0.0
        return scores

    @staticmethod
    def _sanitized_at(columns: ShardColumns) -> np.ndarray:
        """Per site: a same-class sanitizer at or before it in its unit."""
        n_sites = columns.n_sites
        rows = np.arange(n_sites)
        own = columns.site_taxonomy_type
        cross = columns.site_cross_type.astype(np.int64)
        # sanitizes[i, c]: site i's statements sanitize class c.
        sanitizes = np.zeros((n_sites + 1, len(VulnerabilityType)), np.int64)
        decoy = columns.site_decoy
        sanitizes[rows[decoy] + 1, own[decoy]] = 1
        has_cross = cross >= 0
        sanitizes[rows[has_cross] + 1, cross[has_cross]] = 1
        # Row r of the prefix count covers site rows < r; subtracting the
        # unit's first row makes it a per-unit (segmented) count.
        seen = np.cumsum(sanitizes, axis=0)
        unit_start = columns.unit_site_offset[columns.site_unit]
        return seen[rows + 1, own] > seen[unit_start, own]

    def _scan_unit(self, unit: CodeUnit) -> list[Detection]:
        has_input = any(s.kind is StatementKind.INPUT for s in unit.statements)
        if not has_input:
            return []
        findings: list[Detection] = []
        for index, statement in enumerate(unit.statements):
            if statement.kind is not StatementKind.SINK:
                continue
            sanitized = self._sanitized_before(unit, index)
            if self.respect_sanitizers and sanitized:
                continue
            site = SinkSite(unit.unit_id, index, statement.vuln_type)  # type: ignore[arg-type]
            # A visible same-class sanitizer the scanner chose not to trust
            # still lowers its reported confidence — the hedging behaviour
            # of real signature matchers.
            confidence = self.confidence * (0.55 if sanitized else 1.0)
            findings.append(Detection(site=site, confidence=confidence))
        return findings

    def _sanitized_before(self, unit: CodeUnit, sink_index: int) -> bool:
        """Purely syntactic: any same-class sanitizer textually above the sink."""
        sink = unit.statements[sink_index]
        return any(
            s.kind is StatementKind.SANITIZE and s.vuln_type is sink.vuln_type
            for s in unit.statements[:sink_index]
        )
