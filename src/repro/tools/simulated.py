"""Parametric simulated tools.

The scenario and MCDA studies need *pools* of tools spanning the whole
precision/recall operating space, including operating points the three real
detectors do not reach.  A :class:`SimulatedTool` draws each site's verdict
from a Bernoulli whose probability is the tool's per-class recall (for
vulnerable sites) or false-positive rate (for safe sites), modulated by site
difficulty — the standard way benchmark studies model tools when only their
campaign-level rates are published.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._rng import derive_seed
from repro.errors import ToolError
from repro.tools.base import (
    Detection,
    DetectionReport,
    VulnerabilityDetectionTool,
    replay_confidence_words,
    replay_decisions,
)
from repro.workload.columnar import ShardColumns
from repro.workload.generator import Workload
from repro.workload.taxonomy import VulnerabilityType

__all__ = ["ToolProfile", "SimulatedTool"]


@dataclass(frozen=True)
class ToolProfile:
    """Operating characteristics of a simulated tool.

    ``recall`` / ``fpr`` are the baseline per-site probabilities; the
    optional per-class overrides model tools that are strong on SQL injection
    but weak on XPath, etc.  ``difficulty_sensitivity`` in [0, 1] scales how
    much a hard site depresses the detection probability.
    """

    recall: float
    fpr: float
    recall_by_type: dict[VulnerabilityType, float] = field(default_factory=dict)
    fpr_by_type: dict[VulnerabilityType, float] = field(default_factory=dict)
    difficulty_sensitivity: float = 0.3
    ranking_quality: float = 0.6
    """How well the tool's confidences separate real findings from false
    alarms, in [0, 1]: 0 = confidences carry no information beyond the
    binary report, 1 = true findings always outscore false alarms."""

    def __post_init__(self) -> None:
        for label, value in (("recall", self.recall), ("fpr", self.fpr)):
            if not 0.0 <= value <= 1.0:
                raise ToolError(f"{label}={value} must be in [0, 1]")
        for mapping in (self.recall_by_type, self.fpr_by_type):
            for vuln_type, value in mapping.items():
                if not 0.0 <= value <= 1.0:
                    raise ToolError(f"rate for {vuln_type} is {value}, not in [0, 1]")
        if not 0.0 <= self.difficulty_sensitivity <= 1.0:
            raise ToolError(
                f"difficulty_sensitivity={self.difficulty_sensitivity} must be in [0, 1]"
            )
        if not 0.0 <= self.ranking_quality <= 1.0:
            raise ToolError(
                f"ranking_quality={self.ranking_quality} must be in [0, 1]"
            )

    def detection_probability(self, vuln_type: VulnerabilityType, difficulty: float) -> float:
        """Probability of reporting a *vulnerable* site of this class."""
        base = self.recall_by_type.get(vuln_type, self.recall)
        return base * (1.0 - self.difficulty_sensitivity * difficulty)

    def false_alarm_probability(self, vuln_type: VulnerabilityType) -> float:
        """Probability of reporting a *safe* site of this class."""
        return self.fpr_by_type.get(vuln_type, self.fpr)


class SimulatedTool(VulnerabilityDetectionTool):
    """A tool defined entirely by its :class:`ToolProfile`."""

    def __init__(self, name: str, profile: ToolProfile, seed: int = 0) -> None:
        super().__init__(name)
        self.profile = profile
        self.seed = seed

    def _stream_seed(self, workload_name: str) -> int:
        """Seed of this tool's random stream over the named workload."""
        return derive_seed(
            derive_seed(self.seed, self.name), f"simulated:{workload_name}"
        )

    def analyze(self, workload: Workload) -> DetectionReport:
        """Sample detections at this tool's configured TPR/FPR, seeded per workload."""
        rng = np.random.default_rng(self._stream_seed(workload.name))
        detections: list[Detection] = []
        for site in workload.truth.sites:
            site_profile = workload.profiles[site]
            if site_profile.vulnerable:
                probability = self.profile.detection_probability(
                    site_profile.vuln_type, site_profile.difficulty
                )
            else:
                probability = self.profile.false_alarm_probability(site_profile.vuln_type)
            if rng.random() < probability:
                detections.append(
                    Detection(
                        site=site,
                        confidence=self._confidence(rng, site_profile.vulnerable),
                    )
                )
        return self._report(workload, detections)

    def flag_sites(self, columns: ShardColumns) -> np.ndarray:
        """Columnar :meth:`analyze`: the profile's per-site probabilities,
        replayed over the same stream (see
        :func:`~repro.tools.base.replay_decisions`)."""
        profile = self.profile
        types = columns.type_order
        recall = np.array(
            [profile.recall_by_type.get(t, profile.recall) for t in types]
        )[columns.site_type]
        fpr = np.array(
            [profile.fpr_by_type.get(t, profile.fpr) for t in types]
        )[columns.site_type]
        # ToolProfile.detection_probability's operation order, elementwise.
        detection = recall * (
            1.0 - profile.difficulty_sensitivity * columns.site_difficulty
        )
        probabilities = np.where(columns.site_vulnerable, detection, fpr)
        return replay_decisions(
            self._stream_seed(columns.config.name), probabilities
        )

    def site_scores(self, columns: ShardColumns) -> np.ndarray:
        """Columnar confidences: :meth:`_confidence`'s formula over each
        hit's confidence draw (see
        :func:`~repro.tools.base.replay_confidence_words`)."""
        flags = self.flag_sites(columns)
        uniform = replay_confidence_words(
            self._stream_seed(columns.config.name), flags
        )
        # rng.uniform(0.05, 1.0): low + (high - low) * random().
        draw = 0.05 + (1.0 - 0.05) * uniform
        quality = self.profile.ranking_quality
        floor = 0.05 + 0.95 * 0.5 * quality
        ceiling = 1.0 - 0.95 * 0.5 * quality
        scores = np.zeros(columns.n_sites)
        scores[flags] = np.where(
            columns.site_vulnerable[flags],
            floor + (1.0 - floor) * (draw - 0.05) / 0.95,
            0.05 + (ceiling - 0.05) * (draw - 0.05) / 0.95,
        )
        return scores

    def _confidence(self, rng: np.random.Generator, vulnerable: bool) -> float:
        """Draw a finding confidence.

        ``ranking_quality`` interpolates between uninformative (same uniform
        distribution for real findings and false alarms) and fully
        separating (real findings uniformly above every false alarm).
        """
        draw = float(rng.uniform(0.05, 1.0))
        quality = self.profile.ranking_quality
        if vulnerable:
            floor = 0.05 + 0.95 * 0.5 * quality
            return floor + (1.0 - floor) * (draw - 0.05) / 0.95
        ceiling = 1.0 - 0.95 * 0.5 * quality
        return 0.05 + (ceiling - 0.05) * (draw - 0.05) / 0.95
