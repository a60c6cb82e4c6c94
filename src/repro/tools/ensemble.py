"""Ensemble/consensus meta-tool: a quorum vote over member reports.

Benchmark normalization pipelines (SAST + DAST + SCA scanners folded into
one result schema) commonly add a *triage consensus* step: a finding is
promoted only when enough independent scanners agree.  The
:class:`EnsembleTool` models that as a detection tool in its own right — it
runs every member over the workload and flags the sites at least ``quorum``
members flag, with the vote share as its confidence.

Determinism is inherited: members are ordinary tools whose reports are pure
functions of ``(member construction, workload)``, so the ensemble's report
is too.  The ensemble never consults ground truth — it only sees member
reports, exactly like a real triage step.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.errors import ToolError
from repro.tools.base import Detection, DetectionReport, VulnerabilityDetectionTool
from repro.workload.columnar import ShardColumns
from repro.workload.generator import Workload

__all__ = ["EnsembleTool"]


class EnsembleTool(VulnerabilityDetectionTool):
    """Consensus detector: flag sites at least ``quorum`` members flag."""

    def __init__(
        self,
        name: str,
        members: Sequence[VulnerabilityDetectionTool],
        quorum: int,
    ) -> None:
        super().__init__(name)
        if not members:
            raise ToolError("ensemble needs at least one member tool")
        member_names = [member.name for member in members]
        if len(set(member_names)) != len(member_names):
            raise ToolError(
                f"ensemble members must have unique names, got {member_names}"
            )
        if not 1 <= quorum <= len(members):
            raise ToolError(
                f"quorum={quorum} must be in [1, {len(members)}] "
                f"(the member count)"
            )
        self.members = tuple(members)
        self.quorum = quorum

    def analyze(self, workload: Workload) -> DetectionReport:
        """Run every member, then vote: ``quorum`` flags promote a site."""
        votes: Counter = Counter()
        for member in self.members:
            votes.update(member.analyze(workload).flagged_sites)
        detections = [
            Detection(site=site, confidence=count / len(self.members))
            for site, count in votes.items()
            if count >= self.quorum
        ]
        return self._report(workload, detections)

    def flag_sites(self, columns: ShardColumns) -> np.ndarray:
        """Columnar :meth:`analyze`: count member flags per site, keep
        the sites with at least ``quorum`` votes."""
        votes = np.zeros(columns.n_sites, dtype=np.int64)
        for member in self.members:
            votes += member.flag_sites(columns)
        return votes >= self.quorum
