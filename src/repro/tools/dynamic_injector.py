"""Dynamic (penetration-testing style) detector.

Models the black-box testers of the original campaigns (AppScan/WebInspect
class): for every analysis site it "fires payloads" and observes whether an
injection manifests.  We do not execute code — instead, the probability that
the attack lands is derived from the site's true state and generation
profile:

- a vulnerable site is detected with probability
  ``base_detectability(class) * payload_coverage * (1 - difficulty_penalty)``
  — black-box testing misses vulnerabilities behind deep transformations;
- a safe site is (rarely) *mis*-reported with probability ``false_alarm_rate``
  — response misinterpretation, the dominant FP source of dynamic tools.

This keeps dynamic tools in their empirically observed corner: good
precision, modest and class-dependent recall.  All randomness derives from
the tool's seed and the workload name, so campaigns remain repeatable.
"""

from __future__ import annotations

import numpy as np

from repro._rng import derive_seed
from repro.errors import ToolError
from repro.tools.base import (
    Detection,
    DetectionReport,
    VulnerabilityDetectionTool,
    check_confidence,
    replay_confidence_words,
    replay_decisions,
)
from repro.workload.columnar import ShardColumns
from repro.workload.generator import Workload
from repro.workload.taxonomy import TRAITS

__all__ = ["DynamicInjector"]


class DynamicInjector(VulnerabilityDetectionTool):
    """Payload-firing black-box tester with calibrated hit probabilities."""

    def __init__(
        self,
        name: str = "DynamicInjector",
        payload_coverage: float = 0.8,
        difficulty_penalty: float = 0.5,
        false_alarm_rate: float = 0.02,
        seed: int = 0,
        confidence: float = 0.95,
    ) -> None:
        super().__init__(name)
        if not 0.0 < payload_coverage <= 1.0:
            raise ToolError(f"payload_coverage={payload_coverage} must be in (0, 1]")
        if not 0.0 <= difficulty_penalty <= 1.0:
            raise ToolError(f"difficulty_penalty={difficulty_penalty} must be in [0, 1]")
        if not 0.0 <= false_alarm_rate < 1.0:
            raise ToolError(f"false_alarm_rate={false_alarm_rate} must be in [0, 1)")
        self.payload_coverage = payload_coverage
        self.difficulty_penalty = difficulty_penalty
        self.false_alarm_rate = false_alarm_rate
        self.seed = seed
        self.confidence = check_confidence(confidence)

    def _stream_seed(self, workload_name: str) -> int:
        """Seed of this tool's random stream over the named workload."""
        return derive_seed(
            derive_seed(self.seed, self.name), f"dynamic:{workload_name}"
        )

    def analyze(self, workload: Workload) -> DetectionReport:
        """Probe each site with seeded payloads; report triggered faults."""
        rng = np.random.default_rng(self._stream_seed(workload.name))
        detections: list[Detection] = []
        for site in workload.truth.sites:
            profile = workload.profiles[site]
            if profile.vulnerable:
                traits = TRAITS[profile.vuln_type]
                hit_probability = (
                    traits.base_dynamic_detectability
                    * self.payload_coverage
                    * (1.0 - self.difficulty_penalty * profile.difficulty)
                )
                if rng.random() < hit_probability:
                    # A triggered injection is strong, slightly variable
                    # evidence (payload echo quality differs per site).
                    confidence = min(
                        1.0, self.confidence * (0.8 + 0.2 * rng.random())
                    )
                    detections.append(Detection(site=site, confidence=confidence))
            else:
                if rng.random() < self.false_alarm_rate:
                    # Misread responses come with hesitant confidence.
                    confidence = 0.35 + 0.4 * rng.random()
                    detections.append(Detection(site=site, confidence=confidence))
        return self._report(workload, detections)

    def flag_sites(self, columns: ShardColumns) -> np.ndarray:
        """Columnar :meth:`analyze`: the same hit probabilities, replayed
        over the same stream (see :func:`~repro.tools.base.replay_decisions`)."""
        detectability = np.array(
            [TRAITS[t].base_dynamic_detectability for t in columns.type_order]
        )[columns.site_type]
        hit_probability = (
            detectability
            * self.payload_coverage
            * (1.0 - self.difficulty_penalty * columns.site_difficulty)
        )
        probabilities = np.where(
            columns.site_vulnerable, hit_probability, self.false_alarm_rate
        )
        return replay_decisions(
            self._stream_seed(columns.config.name), probabilities
        )

    def site_scores(self, columns: ShardColumns) -> np.ndarray:
        """Columnar confidences: each hit's confidence draw (see
        :func:`~repro.tools.base.replay_confidence_words`) through
        :meth:`analyze`'s formulas for triggered injections and misreads."""
        flags = self.flag_sites(columns)
        draw = replay_confidence_words(self._stream_seed(columns.config.name), flags)
        scores = np.zeros(columns.n_sites)
        scores[flags] = np.where(
            columns.site_vulnerable[flags],
            np.minimum(1.0, self.confidence * (0.8 + 0.2 * draw)),
            0.35 + 0.4 * draw,
        )
        return scores
