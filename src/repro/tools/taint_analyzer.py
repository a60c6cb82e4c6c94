"""Bounded taint-flow static analyzer.

A genuine data-flow analysis over the mini-IR, modelled on the second
generation of static analyzers (Fortify/FindBugs-security style): it tracks
which variables are tainted, class by class, and flags a sink only when taint
of the sink's own class reaches it.

Its *deliberate* weaknesses — each configurable — produce the realistic error
structure:

- ``max_chain_depth``: taint is dropped after this many propagation hops
  (false negatives on deep chains, like a real analysis giving up on long
  def-use chains);
- ``trust_sanitizers``: when ``False``, sanitizers are treated as ordinary
  assignments (false positives on sanitized decoys — the behaviour of tools
  without a sanitizer model);
- ``concat_taint_loss``: a deterministic variant of field insensitivity:
  when ``True``, CONCAT propagates taint only from its *first* operand, so
  taint mixed in through later operands is silently lost (false negatives,
  the way string-builder modelling bugs lose flows in real analyzers).
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["TaintAnalyzer"]


@dataclass(frozen=True, slots=True)
class _Taint:
    """Taint label: the vulnerability classes a value is dangerous for, plus
    the number of propagation hops it has survived."""

    classes: frozenset[VulnerabilityType]
    depth: int


class TaintAnalyzer(VulnerabilityDetectionTool):
    """Class-aware taint propagation with configurable unsoundness."""

    def __init__(
        self,
        name: str = "TaintAnalyzer",
        max_chain_depth: int | None = None,
        trust_sanitizers: bool = True,
        concat_taint_loss: bool = False,
        confidence: float = 0.9,
    ) -> None:
        super().__init__(name)
        if max_chain_depth is not None and max_chain_depth < 0:
            raise ValueError(f"max_chain_depth={max_chain_depth} must be >= 0 or None")
        self.max_chain_depth = max_chain_depth
        self.trust_sanitizers = trust_sanitizers
        self.concat_taint_loss = concat_taint_loss
        self.confidence = check_confidence(confidence)

    def analyze(self, workload: Workload) -> DetectionReport:
        """Trace source-to-sink flows; flag sites reached by untrusted data."""
        detections: list[Detection] = []
        for unit in workload.units:
            detections.extend(self._analyze_unit(unit))
        return self._report(workload, detections)

    def flag_sites(self, columns: ShardColumns) -> np.ndarray:
        """Columnar :meth:`analyze`, from each site's shape.

        Taint starts at sites with an INPUT head (vulnerable or decoy).
        A trusted decoy sanitizer removes the sink's class; every hop,
        sanitizer and post-sanitizer assign adds one to the depth the
        budget caps; under ``concat_taint_loss`` a concat hop whose
        tainted operand comes second loses the flow.
        """
        flags = columns.site_vulnerable | columns.site_decoy
        if self.trust_sanitizers:
            flags &= ~columns.site_decoy
        if self.max_chain_depth is not None:
            depth = (
                columns.site_chain
                + columns.site_cross
                + columns.site_decoy
                + columns.site_post_assign
            )
            flags &= depth <= self.max_chain_depth
        if self.concat_taint_loss:
            flags &= (columns.site_branch_mask & ~columns.site_order_mask) == 0
        return flags

    def site_scores(self, columns: ShardColumns) -> np.ndarray:
        """Columnar confidences: :meth:`analyze`'s depth decay per flag.

        Taint reaching a flagged sink has taken one hop per chain link,
        cross-class sanitizer, decoy sanitizer and post-sanitizer assign.
        The confidence of each depth comes from a table built with the
        scalar expression ``analyze`` evaluates, not from a vectorized
        power, which may differ from Python's by an ulp.
        """
        flags = self.flag_sites(columns)
        depth = (
            columns.site_chain
            + columns.site_cross
            + columns.site_decoy
            + columns.site_post_assign
        )[flags]
        scores = np.zeros(columns.n_sites)
        if depth.size:
            table = [self._confidence_at(d) for d in range(int(depth.max()) + 1)]
            scores[flags] = np.array(table)[depth]
        return scores

    def _analyze_unit(self, unit: CodeUnit) -> list[Detection]:
        environment: dict[str, _Taint] = {}
        findings: list[Detection] = []
        all_classes = frozenset(VulnerabilityType)
        for index, statement in enumerate(unit.statements):
            kind = statement.kind
            if kind is StatementKind.INPUT:
                environment[statement.target] = _Taint(all_classes, 0)  # type: ignore[index]
            elif kind is StatementKind.CONST:
                environment.pop(statement.target, None)  # type: ignore[arg-type]
            elif kind is StatementKind.ASSIGN:
                self._propagate(environment, statement.target, [statement.sources[0]])
            elif kind is StatementKind.CONCAT:
                if self.concat_taint_loss:
                    # Unsound: analysis only follows the first operand.
                    self._propagate(environment, statement.target, [statement.sources[0]])
                else:
                    self._propagate(environment, statement.target, list(statement.sources))
            elif kind is StatementKind.SANITIZE:
                source_taint = environment.get(statement.sources[0])
                if source_taint is None:
                    environment.pop(statement.target, None)  # type: ignore[arg-type]
                elif self.trust_sanitizers:
                    remaining = source_taint.classes - {statement.vuln_type}
                    if remaining:
                        environment[statement.target] = _Taint(  # type: ignore[index]
                            remaining, source_taint.depth + 1
                        )
                        self._enforce_depth(environment, statement.target)
                    else:
                        environment.pop(statement.target, None)  # type: ignore[arg-type]
                else:
                    # Sanitizer treated as a plain assignment.
                    self._propagate(environment, statement.target, [statement.sources[0]])
            elif kind is StatementKind.SINK:
                taint = environment.get(statement.sources[0])
                if taint is not None and statement.vuln_type in taint.classes:
                    site = SinkSite(unit.unit_id, index, statement.vuln_type)  # type: ignore[arg-type]
                    findings.append(
                        Detection(
                            site=site, confidence=self._confidence_at(taint.depth)
                        )
                    )
        return findings

    def _confidence_at(self, depth: int) -> float:
        """Confidence decays with propagation depth.

        A flow the analyzer tracked through many hops is more likely to be
        an artifact of its approximations — the standard rationale behind
        severity/confidence scores in real static analyzers, and what gives
        the tool a non-trivial ranking for the ROC analysis.
        """
        return max(0.05, self.confidence * (0.93**depth))

    def _propagate(
        self, environment: dict[str, _Taint], target: str | None, sources: list[str]
    ) -> None:
        classes: frozenset[VulnerabilityType] = frozenset()
        depth = 0
        for source in sources:
            taint = environment.get(source)
            if taint is not None:
                classes |= taint.classes
                depth = max(depth, taint.depth)
        if classes:
            environment[target] = _Taint(classes, depth + 1)  # type: ignore[index]
            self._enforce_depth(environment, target)
        else:
            environment.pop(target, None)  # type: ignore[arg-type]

    def _enforce_depth(self, environment: dict[str, _Taint], target: str | None) -> None:
        """Drop taint that has travelled past the configured depth budget."""
        if self.max_chain_depth is None:
            return
        taint = environment.get(target)  # type: ignore[arg-type]
        if taint is not None and taint.depth > self.max_chain_depth:
            environment.pop(target, None)  # type: ignore[arg-type]
