"""Experiment specifications and their registry.

An :class:`ExperimentSpec` is the declarative face of one experiment: its
id, the exact title/artifact strings ``repro list`` prints, whether it takes
a seed, which upstream experiments it consumes, and the driver callable.
Experiment modules register their spec at import time, so the CLI, the
scheduler and the docs all read from one source and cannot drift apart the
way the old hand-maintained ``_SEEDLESS`` set and titles dict in ``cli.py``
could.  The registry imports an experiment's module the first time its id
is looked up (:data:`repro.bench.experiments.MODULES` says which), so a run
loads only the experiments it runs.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.bench.result import ExperimentResult
from repro.errors import ConfigurationError

__all__ = [
    "ExperimentSpec",
    "register_spec",
    "get_spec",
    "all_specs",
    "experiment_ids",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative metadata for one reproduction experiment."""

    experiment_id: str
    """Canonical id (``R1`` .. ``R20``)."""
    title: str
    """Short title as printed by ``repro list``."""
    artifact: str
    """What the experiment reproduces (``table``, ``figure``, ``extension``)."""
    runner: Callable[..., ExperimentResult]
    """The module's ``run`` callable (keyword-only invocation)."""
    seedless: bool = False
    """Whether the driver takes no ``seed`` keyword (R1 static, R6 analytic)."""
    depends_on: tuple[str, ...] = ()
    """Upstream experiment ids whose results/artifacts this one consumes."""
    cache_defaults: Mapping[str, Any] = field(default_factory=dict)
    """Default values of the keyword arguments that parameterize the result.

    Used to normalize cache keys: a caller passing ``n_pools=40`` explicitly
    and a caller relying on the default must land on the same artifact.
    """

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ConfigurationError("experiment id must be non-empty")
        if self.experiment_id in self.depends_on:
            raise ConfigurationError(
                f"experiment {self.experiment_id} cannot depend on itself"
            )

    @property
    def list_line(self) -> str:
        """The ``repro list`` line body, e.g. ``Metric catalog (table)``."""
        return f"{self.title} ({self.artifact})"

    @property
    def index(self) -> int:
        """Numeric order (R7 -> 7); used for deterministic scheduling."""
        digits = "".join(ch for ch in self.experiment_id if ch.isdigit())
        return int(digits) if digits else 0


_REGISTRY: dict[str, ExperimentSpec] = {}


def register_spec(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec``; re-registration must be identical (module reload)."""
    existing = _REGISTRY.get(spec.experiment_id)
    if existing is not None and existing.runner is not spec.runner:
        raise ConfigurationError(
            f"experiment {spec.experiment_id!r} registered twice with "
            f"different runners"
        )
    _REGISTRY[spec.experiment_id] = spec
    return spec


def get_spec(experiment_id: str) -> ExperimentSpec:
    """The spec for ``experiment_id`` (case-insensitive).

    The first lookup of an id imports its experiment module, which
    registers the spec; every later lookup is one dict hit.
    """
    key = experiment_id.upper()
    spec = _REGISTRY.get(key)
    if spec is not None:
        return spec
    # Imported here: sharded campaigns use this module but no experiment.
    from repro.bench.experiments import MODULES

    if key not in MODULES:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {', '.join(MODULES)}"
        )
    importlib.import_module(f"repro.bench.experiments.{MODULES[key]}")
    return _REGISTRY[key]


def all_specs() -> list[ExperimentSpec]:
    """Every registered spec in R1..R20 order (imports every experiment)."""
    for experiment_id in experiment_ids():
        get_spec(experiment_id)
    return sorted(_REGISTRY.values(), key=lambda spec: spec.index)


def experiment_ids() -> list[str]:
    """Experiment ids in canonical order (imports no experiment module)."""
    from repro.bench.experiments import MODULES

    return list(MODULES)
