"""SCA-style version-matching detector.

Software-composition-analysis tools do not analyze code: they match the
*dependency manifest* against a vulnerability database.  That gives them a
characteristic blind spot — first-party code is invisible to them — and a
characteristic strength: inside the dependency surface, detection is a
database lookup, so recall is high and independent of how deep the tainted
flow runs.

We model that with two mechanisms:

- **visibility**: a unit is *dependency-shaped* or not, decided by
  :func:`is_dependency_unit` — a pure hash of the unit id against the
  ecosystem's ``dependency_fraction`` (see
  :class:`~repro.workload.ecosystems.EcosystemProfile`), so the partition
  is a property of the workload, identical for every tool and every run;
- **matching**: inside visible units, vulnerable sites are flagged with
  probability ``db_coverage`` (the database knows the affected version) and
  safe sites with probability ``version_noise`` (version-range false
  matches), both independent of site difficulty.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro._rng import derive_seed
from repro.errors import ToolError
from repro.tools.base import (
    Detection,
    DetectionReport,
    VulnerabilityDetectionTool,
    replay_decisions,
)
from repro.workload.columnar import ShardColumns
from repro.workload.generator import Workload

__all__ = ["is_dependency_unit", "dependency_mask", "ScaMatcher"]

_HASH_BUCKETS = 10**9


def is_dependency_unit(unit_id: str, dependency_fraction: float) -> bool:
    """Whether ``unit_id`` is dependency-shaped at the given density.

    A pure function of the unit id (seed-free SHA-256 bucket against
    ``dependency_fraction``), so every SCA-style tool sees the same
    partition of a workload and the partition survives re-generation,
    sharding and process boundaries.
    """
    if not 0.0 <= dependency_fraction <= 1.0:
        raise ToolError(
            f"dependency_fraction={dependency_fraction} must be in [0, 1]"
        )
    bucket = derive_seed(0, f"dependency-unit:{unit_id}") % _HASH_BUCKETS
    return bucket < dependency_fraction * _HASH_BUCKETS


def dependency_mask(
    unit_ids: Sequence[str], dependency_fraction: float
) -> np.ndarray:
    """:func:`is_dependency_unit` over a whole corpus, as a bool array.

    Element ``i`` equals ``is_dependency_unit(unit_ids[i], fraction)`` —
    the same hash partition, validated once and evaluated per *unit*
    rather than per site.  This is the column the batched generation
    path (:meth:`repro.workload.columnar.ShardColumns.dependency_mask`)
    exposes.
    """
    if not 0.0 <= dependency_fraction <= 1.0:
        raise ToolError(
            f"dependency_fraction={dependency_fraction} must be in [0, 1]"
        )
    cut = dependency_fraction * _HASH_BUCKETS
    return np.fromiter(
        (
            derive_seed(0, f"dependency-unit:{unit_id}") % _HASH_BUCKETS < cut
            for unit_id in unit_ids
        ),
        dtype=bool,
        count=len(unit_ids),
    )


class ScaMatcher(VulnerabilityDetectionTool):
    """Version-matching detector that only sees dependency-shaped units."""

    def __init__(
        self,
        name: str = "ScaMatcher",
        db_coverage: float = 0.9,
        version_noise: float = 0.02,
        dependency_fraction: float = 0.1,
        seed: int = 0,
    ) -> None:
        super().__init__(name)
        if not 0.0 < db_coverage <= 1.0:
            raise ToolError(f"db_coverage={db_coverage} must be in (0, 1]")
        if not 0.0 <= version_noise < 1.0:
            raise ToolError(f"version_noise={version_noise} must be in [0, 1)")
        if not 0.0 <= dependency_fraction <= 1.0:
            raise ToolError(
                f"dependency_fraction={dependency_fraction} must be in [0, 1]"
            )
        self.db_coverage = db_coverage
        self.version_noise = version_noise
        self.dependency_fraction = dependency_fraction
        self.seed = seed

    def _stream_seed(self, workload_name: str) -> int:
        """Seed of this tool's random stream over the named workload."""
        return derive_seed(
            derive_seed(self.seed, self.name), f"sca:{workload_name}"
        )

    def analyze(self, workload: Workload) -> DetectionReport:
        """Match dependency-shaped units against the simulated database."""
        rng = np.random.default_rng(self._stream_seed(workload.name))
        detections: list[Detection] = []
        # The hash partition is per unit, not per site; memoize it so
        # multi-site units hash once (verdicts, and therefore the RNG
        # stream, are unchanged).
        visible: dict[str, bool] = {}
        for site in workload.truth.sites:
            unit_visible = visible.get(site.unit_id)
            if unit_visible is None:
                unit_visible = is_dependency_unit(
                    site.unit_id, self.dependency_fraction
                )
                visible[site.unit_id] = unit_visible
            if not unit_visible:
                continue
            profile = workload.profiles[site]
            probability = (
                self.db_coverage if profile.vulnerable else self.version_noise
            )
            if rng.random() < probability:
                # A database match is categorical evidence — confidence
                # reflects advisory quality, not flow analysis.
                detections.append(
                    Detection(site=site, confidence=0.6 + 0.4 * rng.random())
                )
        return self._report(workload, detections)

    def flag_sites(self, columns: ShardColumns) -> np.ndarray:
        """Columnar :meth:`analyze`: only sites of dependency-shaped units
        draw, replayed over the same stream (see
        :func:`~repro.tools.base.replay_decisions`)."""
        visible = columns.dependency_mask(self.dependency_fraction)[
            columns.site_unit
        ]
        probabilities = np.where(
            columns.site_vulnerable[visible],
            self.db_coverage,
            self.version_noise,
        )
        flags = np.zeros(columns.n_sites, dtype=bool)
        flags[visible] = replay_decisions(
            self._stream_seed(columns.config.name), probabilities
        )
        return flags
