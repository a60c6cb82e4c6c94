"""Streaming campaign aggregation: exact totals without the corpus in memory.

The scalar campaign path (:func:`repro.bench.campaign.run_campaign`) holds a
whole workload and every tool report in memory at once — fine at the
paper's scale, impossible at 10⁶ units.  This module provides the streaming
counterpart for sharded corpora (:mod:`repro.workload.sharded`):

- :func:`evaluate_shard` scores *one* shard's columnar record
  (:class:`~repro.workload.columnar.ShardColumns`) from every tool's
  per-site flag mask and condenses it to a :class:`ShardCells` — four
  confusion cells per tool plus shard totals, a few hundred bytes;
- :class:`CampaignAccumulator` folds shard cells into running per-tool
  totals and finalizes them as a :class:`StreamingCampaignResult`.

Exactness contract: confusion cells are non-negative integers, and float64
addition of integers below 2⁵³ is exact and order-independent — so the
accumulator's totals are **bit-identical** to materializing every shard
campaign in memory and summing scalar
:class:`~repro.metrics.confusion.ConfusionMatrix` cells
(:func:`materialized_totals`), for any fold order, executor, or retry
history.  Each shard's cells come from the tools'
:meth:`~repro.tools.base.VulnerabilityDetectionTool.flag_sites` masks,
which reach exactly the verdicts ``analyze`` reaches on the materialized
workload; :func:`materialized_totals` runs the object path (``analyze``
scored by :func:`~repro.bench.campaign.score_report`) and is the parity
oracle the two paths are held to.  Memory is bounded by one
shard, not by the corpus.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.bench.campaign import score_report
from repro.errors import ConfigurationError
from repro.metrics.base import Metric
from repro.metrics.batch import ConfusionBatch
from repro.metrics.confusion import ConfusionMatrix
from repro.obs import Tracer
from repro.tools.base import VulnerabilityDetectionTool
from repro.workload.columnar import ShardColumns
from repro.workload.ecosystems import DEFAULT_ECOSYSTEM
from repro.workload.sharded import ShardPlan

__all__ = [
    "ShardCells",
    "StreamingCampaignResult",
    "CampaignAccumulator",
    "evaluate_shard",
    "materialized_totals",
]


@dataclass(frozen=True)
class ShardCells:
    """One shard's campaign outcome, condensed to per-tool confusion cells.

    This is what crosses process boundaries and what the artifact store
    caches (``repro/shard-cells@1``): everything needed to fold the shard
    into corpus totals, and nothing sized by the shard's content.
    """

    shard_index: int
    """Which shard of the plan these cells summarize."""
    tool_names: tuple[str, ...]
    """Tools in campaign order; cell tuples are parallel to this."""
    tp: tuple[int, ...]
    fp: tuple[int, ...]
    fn: tuple[int, ...]
    tn: tuple[int, ...]
    n_units: int
    """Units in the shard's workload."""
    n_sites: int
    """Analysis sites scored per tool."""
    n_vulnerable: int
    """Truly vulnerable sites in the shard (tp + fn of every tool)."""
    ecosystem: str = DEFAULT_ECOSYSTEM
    """Ecosystem of the shard's workload.  Cells of different ecosystems
    never fold into one total; the default keeps cached cells predating
    ecosystems loadable unchanged."""

    def __post_init__(self) -> None:
        lengths = {
            len(self.tool_names), len(self.tp), len(self.fp),
            len(self.fn), len(self.tn),
        }
        if lengths != {len(self.tool_names)} or not self.tool_names:
            raise ConfigurationError(
                "shard cells need one (tp, fp, fn, tn) row per tool"
            )
        for row in range(len(self.tool_names)):
            tp, fp, fn, tn = (
                self.tp[row], self.fp[row], self.fn[row], self.tn[row],
            )
            if min(tp, fp, fn, tn) < 0:
                raise ConfigurationError("confusion cells must be >= 0")
            if tp + fp + fn + tn != self.n_sites:
                raise ConfigurationError(
                    f"tool {self.tool_names[row]!r}: cells sum to "
                    f"{tp + fp + fn + tn}, expected n_sites={self.n_sites}"
                )
            if tp + fn != self.n_vulnerable:
                raise ConfigurationError(
                    f"tool {self.tool_names[row]!r}: tp+fn={tp + fn} "
                    f"disagrees with n_vulnerable={self.n_vulnerable}"
                )

    def to_array(self) -> np.ndarray:
        """Flatten to the journal's record layout (int64, length ``5 + 4n``).

        Layout: ``[shard_index, n_units, n_sites, n_vulnerable, n_tools]``
        header followed by the four cell rows, each ``n_tools`` wide, in
        ``tp, fp, fn, tn`` order.  The write-ahead journal
        (:mod:`repro.bench.engine.wal`) appends one such vector per folded
        shard.  Tool names and ecosystem are *not* encoded — they are
        properties of the campaign, kept once in the journal header and
        restored by :meth:`from_array`.
        """
        n = len(self.tool_names)
        out = np.empty(5 + 4 * n, dtype=np.int64)
        out[0] = self.shard_index
        out[1] = self.n_units
        out[2] = self.n_sites
        out[3] = self.n_vulnerable
        out[4] = n
        out[5 : 5 + n] = self.tp
        out[5 + n : 5 + 2 * n] = self.fp
        out[5 + 2 * n : 5 + 3 * n] = self.fn
        out[5 + 3 * n :] = self.tn
        return out

    @classmethod
    def from_array(
        cls,
        array: np.ndarray,
        tool_names: Sequence[str],
        ecosystem: str = DEFAULT_ECOSYSTEM,
    ) -> "ShardCells":
        """Rebuild cells from :meth:`to_array` output plus the shared context.

        Validates the embedded tool count against ``tool_names`` before the
        dataclass re-runs its own cell invariants, so a torn or misframed
        buffer fails loudly instead of folding garbage.
        """
        flat = np.asarray(array, dtype=np.int64).reshape(-1)
        names = tuple(tool_names)
        if flat.shape[0] < 5 or int(flat[4]) != len(names):
            raise ConfigurationError(
                f"cells buffer encodes {int(flat[4]) if flat.shape[0] >= 5 else '?'} "
                f"tools, expected {len(names)}"
            )
        n = len(names)
        if flat.shape[0] != 5 + 4 * n:
            raise ConfigurationError(
                f"cells buffer has {flat.shape[0]} slots, expected {5 + 4 * n}"
            )
        return cls(
            shard_index=int(flat[0]),
            tool_names=names,
            tp=tuple(int(v) for v in flat[5 : 5 + n]),
            fp=tuple(int(v) for v in flat[5 + n : 5 + 2 * n]),
            fn=tuple(int(v) for v in flat[5 + 2 * n : 5 + 3 * n]),
            tn=tuple(int(v) for v in flat[5 + 3 * n :]),
            n_units=int(flat[1]),
            n_sites=int(flat[2]),
            n_vulnerable=int(flat[3]),
            ecosystem=ecosystem,
        )


#: What :func:`evaluate_shard` records spans on when no tracer is given.
_UNTRACED = Tracer(enabled=False)


def evaluate_shard(
    tools: Sequence[VulnerabilityDetectionTool],
    columns: ShardColumns,
    shard_index: int,
    tracer: Tracer = _UNTRACED,
) -> ShardCells:
    """Score every tool's flag mask over one shard; return its cells.

    Each tool's :meth:`~repro.tools.base.VulnerabilityDetectionTool.
    flag_sites` mask is scored against the shard's vulnerable column
    (``tp = |flags & vulnerable|``, ``fp = |flags| - tp``, ``fn`` and
    ``tn`` the complements), under one ``shard.tool`` span per tool.  No
    workload, report or detection object is built; the cells equal
    :func:`~repro.bench.campaign.score_report` over ``analyze`` of the
    materialized shard, which :func:`materialized_totals` computes.
    """
    vulnerable = columns.site_vulnerable
    n_sites = columns.n_sites
    n_vulnerable = int(np.count_nonzero(vulnerable))
    tp: list[int] = []
    fp: list[int] = []
    for tool in tools:
        with tracer.span("shard.tool", shard=shard_index, tool=tool.name):
            flags = tool.flag_sites(columns)
        hits = int(np.count_nonzero(flags & vulnerable))
        tp.append(hits)
        fp.append(int(np.count_nonzero(flags)) - hits)
    return ShardCells(
        shard_index=shard_index,
        tool_names=tuple(tool.name for tool in tools),
        tp=tuple(tp),
        fp=tuple(fp),
        fn=tuple(n_vulnerable - hits for hits in tp),
        tn=tuple(n_sites - n_vulnerable - alarms for alarms in fp),
        n_units=columns.n_units,
        n_sites=n_sites,
        n_vulnerable=n_vulnerable,
        ecosystem=columns.config.ecosystem,
    )


@dataclass(frozen=True)
class StreamingCampaignResult:
    """Exact corpus-wide campaign totals, finalized from an accumulator.

    The streaming counterpart of
    :class:`~repro.bench.campaign.CampaignResult`: per-tool confusion
    matrices over the whole corpus, without the per-site reports a scalar
    campaign carries.
    """

    tool_names: tuple[str, ...]
    confusions: tuple[ConfusionMatrix, ...]
    """Corpus-total confusion matrix per tool, parallel to ``tool_names``."""
    n_units: int
    n_sites: int
    n_vulnerable: int
    shard_indices: tuple[int, ...]
    """Shards folded into these totals, in fold order."""
    ecosystem: str = DEFAULT_ECOSYSTEM
    """Ecosystem every folded shard belonged to."""

    @property
    def n_shards(self) -> int:
        """How many shards the totals cover."""
        return len(self.shard_indices)

    @property
    def prevalence(self) -> float:
        """Realized corpus prevalence (vulnerable sites / all sites)."""
        return self.n_vulnerable / self.n_sites

    def confusion_for(self, tool_name: str) -> ConfusionMatrix:
        """Corpus-total confusion matrix of one tool."""
        for name, confusion in zip(self.tool_names, self.confusions):
            if name == tool_name:
                return confusion
        raise ConfigurationError(
            f"no totals for tool {tool_name!r}; have {list(self.tool_names)}"
        )

    def metric_values(self, metric: Metric) -> dict[str, float]:
        """``metric`` on every tool's corpus totals (``nan`` if undefined)."""
        return {
            name: metric.value_or_nan(confusion)
            for name, confusion in zip(self.tool_names, self.confusions)
        }

    def batch(self) -> ConfusionBatch:
        """The totals as a :class:`ConfusionBatch` (one row per tool)."""
        return ConfusionBatch.from_matrices(self.confusions)


class CampaignAccumulator:
    """Folds per-shard confusion cells into exact corpus totals.

    Running totals are float64 vectors over the tool axis; because every
    fold adds non-negative integers (exact in float64 far beyond any
    realistic corpus), the result is independent of fold order and
    bit-identical to the in-memory sum.  Each shard folds at most once —
    a retried or resumed shard that re-delivers its cells is rejected
    rather than silently double counted.
    """

    def __init__(
        self, tool_names: Sequence[str], ecosystem: str = DEFAULT_ECOSYSTEM
    ) -> None:
        if not tool_names:
            raise ConfigurationError("accumulator needs at least one tool")
        self.tool_names = tuple(tool_names)
        self.ecosystem = ecosystem
        n = len(self.tool_names)
        self._tp = np.zeros(n, dtype=np.float64)
        self._fp = np.zeros(n, dtype=np.float64)
        self._fn = np.zeros(n, dtype=np.float64)
        self._tn = np.zeros(n, dtype=np.float64)
        self._n_units = 0
        self._n_sites = 0
        self._n_vulnerable = 0
        self._order: list[int] = []
        self._folded: set[int] = set()

    @property
    def folded(self) -> frozenset[int]:
        """Indices of the shards folded so far."""
        return frozenset(self._folded)

    def __contains__(self, shard_index: int) -> bool:
        """Whether a shard's cells were already folded (crash-recovery
        paths use this to skip journal/manifest duplicates cheaply)."""
        return shard_index in self._folded

    @property
    def n_units(self) -> int:
        """Units covered by the folds so far."""
        return self._n_units

    def fold(self, cells: ShardCells) -> None:
        """Add one shard's cells to the running totals (exactly once)."""
        if cells.tool_names != self.tool_names:
            raise ConfigurationError(
                f"shard {cells.shard_index} scored tools "
                f"{list(cells.tool_names)}, accumulator expects "
                f"{list(self.tool_names)}"
            )
        if cells.ecosystem != self.ecosystem:
            raise ConfigurationError(
                f"shard {cells.shard_index} is ecosystem "
                f"{cells.ecosystem!r}, accumulator totals "
                f"{self.ecosystem!r} — cross-ecosystem folds would mix "
                f"incomparable corpora"
            )
        if cells.shard_index in self._folded:
            raise ConfigurationError(
                f"shard {cells.shard_index} already folded — folding it "
                f"again would double count its cells"
            )
        self._tp += np.asarray(cells.tp, dtype=np.float64)
        self._fp += np.asarray(cells.fp, dtype=np.float64)
        self._fn += np.asarray(cells.fn, dtype=np.float64)
        self._tn += np.asarray(cells.tn, dtype=np.float64)
        self._n_units += cells.n_units
        self._n_sites += cells.n_sites
        self._n_vulnerable += cells.n_vulnerable
        self._folded.add(cells.shard_index)
        self._order.append(cells.shard_index)

    def merge(self, other: "CampaignAccumulator") -> None:
        """Fold another accumulator's totals in (shard sets must not overlap).

        Lets per-worker accumulators combine at the end of a parallel run;
        exactness and order-independence carry over from :meth:`fold`.
        """
        if other.tool_names != self.tool_names:
            raise ConfigurationError(
                "cannot merge accumulators over different tool suites"
            )
        if other.ecosystem != self.ecosystem:
            raise ConfigurationError(
                f"cannot merge accumulators of ecosystems "
                f"{self.ecosystem!r} and {other.ecosystem!r}"
            )
        overlap = self._folded & other._folded
        if overlap:
            raise ConfigurationError(
                f"cannot merge: shards {sorted(overlap)} are in both "
                f"accumulators"
            )
        self._tp += other._tp
        self._fp += other._fp
        self._fn += other._fn
        self._tn += other._tn
        self._n_units += other._n_units
        self._n_sites += other._n_sites
        self._n_vulnerable += other._n_vulnerable
        self._folded |= other._folded
        self._order.extend(other._order)

    def result(self) -> StreamingCampaignResult:
        """Finalize the totals folded so far."""
        if not self._folded:
            raise ConfigurationError(
                "no shards folded — nothing to finalize"
            )
        confusions = tuple(
            ConfusionMatrix(
                tp=float(self._tp[row]),
                fp=float(self._fp[row]),
                fn=float(self._fn[row]),
                tn=float(self._tn[row]),
            )
            for row in range(len(self.tool_names))
        )
        return StreamingCampaignResult(
            tool_names=self.tool_names,
            confusions=confusions,
            n_units=self._n_units,
            n_sites=self._n_sites,
            n_vulnerable=self._n_vulnerable,
            shard_indices=tuple(self._order),
            ecosystem=self.ecosystem,
        )


def materialized_totals(
    tools: Sequence[VulnerabilityDetectionTool], plan: ShardPlan
) -> StreamingCampaignResult:
    """The in-memory reference path: every shard campaign alive at once.

    Materializes every shard workload and scores every tool's report on
    it — the object path: ``analyze`` reports scored site by site by
    ``score_report`` — then sums their confusion cells tool by tool in
    plain Python — no accumulator, no float64 vectors, no flag masks.  The streaming path
    must match this bit for bit; the parity tests and ``check_bench``
    assert exactly that.  Only sensible at small scale (memory grows with
    the corpus).
    """
    workloads = [plan.generate(spec.index) for spec in plan]
    tool_names = tuple(tool.name for tool in tools)
    confusions = []
    for tool in tools:
        tp = fp = fn = tn = 0.0
        for workload in workloads:
            cm = score_report(tool.analyze(workload), workload.truth)
            tp += cm.tp
            fp += cm.fp
            fn += cm.fn
            tn += cm.tn
        confusions.append(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
    n_sites = sum(workload.n_sites for workload in workloads)
    n_vulnerable = sum(
        len(workload.truth.vulnerable) for workload in workloads
    )
    return StreamingCampaignResult(
        tool_names=tool_names,
        confusions=tuple(confusions),
        n_units=sum(len(workload.units) for workload in workloads),
        n_sites=n_sites,
        n_vulnerable=n_vulnerable,
        shard_indices=tuple(spec.index for spec in plan),
        ecosystem=plan.ecosystem,
    )
