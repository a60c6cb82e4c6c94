"""Detection tool interface.

A tool consumes a :class:`~repro.workload.Workload` and produces a
:class:`DetectionReport`: the set of analysis sites it flags as vulnerable.
The benchmark harness scores reports against the workload's ground truth to
obtain confusion matrices — at which point the tool's internals no longer
matter, which is exactly the abstraction boundary the paper's metrics
analysis sits on.

Sharded campaigns never build that object graph.  They hand each tool a
shard's :class:`~repro.workload.columnar.ShardColumns` and ask
:meth:`VulnerabilityDetectionTool.flag_sites` for one bool per site row:
the same verdicts :meth:`~VulnerabilityDetectionTool.analyze` reaches,
without the statements, detections and confidences.  The reference
campaign the experiments share needs the confidences too (for ROC/PR
ranking), and asks :meth:`VulnerabilityDetectionTool.site_scores` for one
float per site row: the exact confidence ``analyze`` attaches, 0.0 where
the tool stays silent.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ToolError
from repro.workload.code_model import SinkSite
from repro.workload.generator import Workload

if TYPE_CHECKING:
    from repro.workload.columnar import ShardColumns

__all__ = [
    "Detection",
    "DetectionReport",
    "VulnerabilityDetectionTool",
    "check_confidence",
    "replay_confidence_words",
    "replay_decisions",
]

_DOUBLE_SCALE = 2.0**-53


def check_confidence(confidence: float) -> float:
    """``confidence`` if it is a valid finding confidence, in (0, 1].

    Tools validate their base confidence at construction, so a bad value
    fails before any run instead of at the first :class:`Detection` the
    object path builds (which :meth:`~VulnerabilityDetectionTool.
    flag_sites` never does).
    """
    if not 0.0 < confidence <= 1.0:
        raise ToolError(f"confidence={confidence} must be in (0, 1]")
    return confidence


def replay_decisions(seed: int, probabilities: np.ndarray) -> np.ndarray:
    """Replay a stochastic tool's per-site decision loop from its stream.

    The stochastic tools' :meth:`~VulnerabilityDetectionTool.analyze`
    walks the sites it visits in order, draws ``rng.random() < p`` for
    each and, for every hit, exactly one more word for the finding's
    confidence.  This returns that loop's hit mask (one bool per entry of
    ``probabilities``) for a generator seeded with ``seed``, drawing the
    same raw PCG64 words: ``rng.random()`` is ``(word >> 11) * 2**-53``,
    so every decision compares the identical double.  ``probabilities``
    must be computed with the scalar code's float operation order — a
    one-ulp difference flips ``u < p``.
    """
    n = int(probabilities.shape[0])
    words = np.random.PCG64(seed).random_raw(2 * n)
    uniforms = ((words >> np.uint64(11)) * _DOUBLE_SCALE).tolist()
    hits: list[int] = []
    pos = 0
    for index, probability in enumerate(probabilities.tolist()):
        if uniforms[pos] < probability:
            hits.append(index)
            pos += 2  # the decision word and the confidence word
        else:
            pos += 1
    flags = np.zeros(n, dtype=bool)
    flags[hits] = True
    return flags


def replay_confidence_words(seed: int, flags: np.ndarray) -> np.ndarray:
    """The confidence draw of every hit :func:`replay_decisions` found.

    ``flags`` is the hit mask replayed from the stream seeded with
    ``seed``.  The ``k``-th hit, at entry ``h``, drew its decision from
    word ``h + k`` and its confidence from word ``h + k + 1``, so one
    gather recovers every confidence draw.  Returns the uniform doubles
    ``rng.random()`` would have produced, one per hit, in entry order.
    """
    hits = np.flatnonzero(flags)
    words = np.random.PCG64(seed).random_raw(2 * int(flags.shape[0]))
    drawn = words[hits + np.arange(hits.shape[0]) + 1]
    return (drawn >> np.uint64(11)) * _DOUBLE_SCALE


@dataclass(frozen=True, slots=True)
class Detection:
    """One finding: a flagged analysis site with a confidence score."""

    site: SinkSite
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise ToolError(f"confidence={self.confidence} must be in (0, 1]")


@dataclass(frozen=True)
class DetectionReport:
    """The complete output of one tool run over one workload."""

    tool_name: str
    workload_name: str
    detections: tuple[Detection, ...]

    def __post_init__(self) -> None:
        sites = [d.site for d in self.detections]
        if len(set(sites)) != len(sites):
            raise ToolError(f"tool {self.tool_name!r} reported a site twice")

    @property
    def flagged_sites(self) -> frozenset[SinkSite]:
        """The set of sites the tool reported."""
        return frozenset(d.site for d in self.detections)

    @property
    def n_detections(self) -> int:
        """Number of findings in the report."""
        return len(self.detections)


class VulnerabilityDetectionTool(ABC):
    """Base class for every detector (real or simulated)."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ToolError("tool name must be non-empty")
        self.name = name

    @abstractmethod
    def analyze(self, workload: Workload) -> DetectionReport:
        """Run the tool over ``workload`` and return its report.

        Implementations must be deterministic given their construction
        parameters (stochastic tools derive per-workload substreams from
        their seed), so campaigns are repeatable.
        """

    def flag_sites(self, columns: "ShardColumns") -> np.ndarray:
        """One bool per site row of ``columns``: does the tool flag it?

        The columnar form of :meth:`analyze`: element ``i`` is ``True``
        exactly when ``analyze`` of the materialized workload reports the
        ``i``-th site of ``truth.sites`` (generation order).  Sharded
        campaigns score these masks directly.  A tool without a columnar
        form is refused rather than evaluated some other way.
        """
        raise ToolError(
            f"{type(self).__name__} has no columnar evaluation "
            f"(flag_sites); sharded campaigns cannot score tool "
            f"{self.name!r}"
        )

    def site_scores(self, columns: "ShardColumns") -> np.ndarray:
        """One float64 per site row of ``columns``: the tool's confidence.

        The scored form of :meth:`flag_sites`: element ``i`` is the exact
        confidence ``analyze`` of the materialized workload attaches to
        the ``i``-th site of ``truth.sites``, and 0.0 where it reports
        nothing, so ``site_scores(columns) > 0`` equals
        ``flag_sites(columns)``.  The reference campaign is scored from
        these arrays.  A tool without a scored columnar form is refused.
        """
        raise ToolError(
            f"{type(self).__name__} has no columnar scores (site_scores); "
            f"columnar campaigns cannot score tool {self.name!r}"
        )

    def _report(self, workload: Workload, detections: list[Detection]) -> DetectionReport:
        """Package ``detections`` into a report, sorted for determinism."""
        ordered = tuple(sorted(detections, key=lambda d: d.site))
        return DetectionReport(
            tool_name=self.name, workload_name=workload.name, detections=ordered
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
