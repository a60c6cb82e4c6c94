"""Sharded workload generation: seed-addressed partitions of one corpus.

The in-memory generator (:mod:`repro.workload.generator`) tops out at a few
thousand units — a million-unit corpus would hold every statement of every
unit alive at once.  A :class:`ShardPlan` instead *describes* such a corpus
as a sequence of independent shards, each a complete
:class:`~repro.workload.generator.Workload` of at most ``shard_size`` units,
and materializes any one of them on demand.

Determinism contract:

- the corpus identity is ``(seed, scale, shard_size, base config)`` — two
  plans with the same identity describe bit-identical corpora;
- each shard draws from its own child seed,
  ``shard_seed(seed, index, ecosystem)`` (:func:`repro._rng.derive_seed`
  over ``f"shard:{index}"`` for the default ecosystem, historical form, or
  ``f"shard:{ecosystem}:{index}"`` otherwise), so **any shard is
  regenerable in isolation**: no shard's content depends on another shard
  having been generated, on generation order, or on which process
  generates it;
- shard workload names are unique and stable
  (``{base.name}-s{index:06d}``), so per-workload tool substreams (which
  key on the workload name, see :mod:`repro.tools`) differ across shards
  and repeat exactly across runs.

The plan itself holds no units: memory scales with ``shard_size``, never
with ``scale``.  The streaming campaign layer
(:mod:`repro.bench.streaming`) folds per-shard confusion cells into exact
corpus totals without ever materializing two shards at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterator

from repro._rng import derive_seed
from repro.errors import ConfigurationError
from repro.workload.ecosystems import DEFAULT_ECOSYSTEM, get_ecosystem
from repro.workload.generator import Workload, WorkloadConfig, generate_workload

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "ShardSpec",
    "ShardPlan",
    "shard_seed",
    "plan_shards",
]

#: Default units per shard: large enough to amortize per-shard overhead,
#: small enough that one shard's workload stays well under 100 MB resident.
DEFAULT_SHARD_SIZE = 10_000


def shard_seed(
    seed: int, index: int, ecosystem: str = DEFAULT_ECOSYSTEM
) -> int:
    """The child seed shard ``index`` of corpus ``seed`` generates from.

    A pure function of the corpus seed, the shard index and the ecosystem,
    so a shard can be regenerated alone, in any process, without touching
    its siblings.  The default ecosystem keeps the historical derivation
    key ``f"shard:{index}"`` (corpora predating ecosystems stay
    bit-identical); every other ecosystem derives from
    ``f"shard:{ecosystem}:{index}"``, so same-seed corpora of different
    ecosystems share no shard streams.
    """
    if ecosystem == DEFAULT_ECOSYSTEM:
        return derive_seed(seed, f"shard:{index}")
    return derive_seed(seed, f"shard:{ecosystem}:{index}")


@dataclass(frozen=True)
class ShardSpec:
    """Identity of one shard: its index, size, child seed and workload name."""

    index: int
    """Position in the corpus (0-based; the last shard may be ragged)."""
    n_units: int
    """Units this shard generates (``shard_size``, except a ragged tail)."""
    seed: int
    """The shard's own generation seed (see :func:`shard_seed`)."""
    name: str
    """The shard workload's name (``{base}-s{index:06d}``, unique per shard)."""


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of a ``scale``-unit corpus into shards.

    The plan is pure description — iterating it yields :class:`ShardSpec`
    identities, and :meth:`generate` materializes one shard's workload at a
    time.  Everything is derived from ``(seed, scale, shard_size, base)``,
    so plans pickle across process boundaries and rebuild identically.
    """

    scale: int
    """Total units in the corpus across all shards."""
    shard_size: int
    """Maximum units per shard (the last shard takes the remainder)."""
    seed: int
    """The corpus master seed; every shard seed is derived from it."""
    base: WorkloadConfig = field(default_factory=WorkloadConfig)
    """Template config; per-shard configs override n_units, seed and name."""

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ConfigurationError(f"scale={self.scale} must be >= 1")
        if self.shard_size < 1:
            raise ConfigurationError(
                f"shard_size={self.shard_size} must be >= 1"
            )

    @property
    def ecosystem(self) -> str:
        """The ecosystem every shard of this corpus belongs to."""
        return self.base.ecosystem

    @property
    def n_shards(self) -> int:
        """How many shards the corpus partitions into (last may be ragged)."""
        return math.ceil(self.scale / self.shard_size)

    def units_in(self, index: int) -> int:
        """Units in shard ``index`` (``shard_size`` except a ragged tail)."""
        self._check_index(index)
        if index == self.n_shards - 1:
            return self.scale - self.shard_size * (self.n_shards - 1)
        return self.shard_size

    def spec(self, index: int) -> ShardSpec:
        """The identity of shard ``index``."""
        self._check_index(index)
        return ShardSpec(
            index=index,
            n_units=self.units_in(index),
            seed=shard_seed(self.seed, index, self.base.ecosystem),
            name=f"{self.base.name}-s{index:06d}",
        )

    def config_for(self, index: int) -> WorkloadConfig:
        """The full :class:`WorkloadConfig` shard ``index`` generates from."""
        spec = self.spec(index)
        return replace(
            self.base, n_units=spec.n_units, seed=spec.seed, name=spec.name
        )

    def generate(self, index: int) -> Workload:
        """Materialize shard ``index`` as a complete workload.

        Independent of every other shard: the same ``(plan, index)`` pair
        produces the same workload whether generated alone, in order, or in
        a worker process.  Runs through the columnar batch path whenever
        the base config supports it (every registered ecosystem does).
        This is the object path: ``analyze``-based consumers and the
        parity oracle :func:`repro.bench.streaming.materialized_totals`
        use it, while :func:`repro.bench.engine.shards.run_sharded_campaign`
        scores :meth:`columns` and never builds the workload.
        """
        return generate_workload(self.config_for(index))

    def columns(self, index: int):
        """Shard ``index`` as a columnar record, skipping materialization.

        Returns the :class:`~repro.workload.columnar.ShardColumns` the
        batch path decodes for this shard — what sharded campaigns score
        tools over, without paying for the object graph.  Requires the
        base config to be within
        :func:`~repro.workload.columnar.supports_batch`.
        """
        from repro.workload.columnar import decode_columns

        return decode_columns(self.config_for(index))

    def __len__(self) -> int:
        return self.n_shards

    def __iter__(self) -> Iterator[ShardSpec]:
        for index in range(self.n_shards):
            yield self.spec(index)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_shards:
            raise ConfigurationError(
                f"shard index {index} out of range for {self.n_shards} shards"
            )


def plan_shards(
    scale: int,
    shard_size: int = DEFAULT_SHARD_SIZE,
    seed: int = 0,
    base: WorkloadConfig | None = None,
    ecosystem: str | None = None,
) -> ShardPlan:
    """Partition a ``scale``-unit corpus into a :class:`ShardPlan`.

    ``base`` supplies the non-size workload parameters (prevalence, type
    mix, difficulty knobs...); its ``n_units``/``seed``/``name`` fields are
    overridden per shard.  ``ecosystem`` instead derives the base from the
    registered :class:`~repro.workload.ecosystems.EcosystemProfile` of that
    name (base name ``corpus`` for the default ecosystem, ``corpus-{name}``
    otherwise).  Passing both is allowed only when they agree.  With
    neither, the base matches
    :class:`~repro.workload.generator.WorkloadConfig`'s defaults with the
    corpus seed and the name ``"corpus"`` — the historical corpus,
    bit-identical to plans predating ecosystems.
    """
    if base is not None:
        if ecosystem is not None and base.ecosystem != ecosystem:
            raise ConfigurationError(
                f"base config is ecosystem {base.ecosystem!r} but "
                f"ecosystem={ecosystem!r} was requested"
            )
    elif ecosystem is None or ecosystem == DEFAULT_ECOSYSTEM:
        base = WorkloadConfig(seed=seed, name="corpus")
    else:
        profile = get_ecosystem(ecosystem)
        base = profile.workload_config(
            n_units=shard_size, seed=seed, name=f"corpus-{ecosystem}"
        )
    return ShardPlan(scale=scale, shard_size=shard_size, seed=seed, base=base)
