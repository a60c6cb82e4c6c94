"""The run context experiments execute in.

A :class:`RunContext` is what an experiment driver receives instead of
calling sibling ``run()`` functions directly: it carries the master seed and
the shared :class:`~repro.bench.engine.artifacts.ArtifactStore`, and exposes
the reproduction's shared artifacts — the reference workload, the scored
campaign, properties matrices, and whole upstream experiment results — as
memoized lookups.  Running an experiment standalone still works: every
``run()`` creates a private context (and store) when none is passed, which
reproduces the historical call-each-other behaviour exactly, just without
the duplicated computation inside one run.

Cache keys are *canonical*: registries key by their symbol list, scenarios
by their keys, metrics by symbol, and omitted/``None`` parameters by the
spec's declared defaults, so a caller spelling a default out loud and a
caller relying on it land on the same artifact.  Parameters the engine
cannot canonicalize (a custom expert panel, a pre-built matrix) bypass the
cache and are recorded as ``uncached`` in the manifest rather than risking
a wrong hit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro._rng import derive_seed
from repro.bench.engine.artifacts import ArtifactCodec, ArtifactKey, ArtifactStore
from repro.bench.engine.spec import get_spec
from repro.bench.result import DEFAULT_SEED, ExperimentResult

if TYPE_CHECKING:
    from repro.bench.campaign import CampaignResult
    from repro.metrics.registry import MetricRegistry
    from repro.obs import MetricsRegistry, Observability
    from repro.properties.matrix import PropertiesMatrix
    from repro.workload.generator import Workload

__all__ = [
    "RunContext",
    "ensure_context",
    "UncacheableParameter",
    "campaign_codec",
]


class UncacheableParameter(Exception):
    """A parameter value has no canonical cache-key form."""


def _canonical(value: Any) -> Any:
    """Reduce a parameter to a stable, hashable cache-key component."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    from repro.experts.panel import ExpertPanel
    from repro.metrics.base import Metric
    from repro.metrics.registry import MetricRegistry
    from repro.scenarios.scenarios import Scenario

    if isinstance(value, Metric):
        return ("metric", value.symbol)
    if isinstance(value, MetricRegistry):
        return ("registry", tuple(value.symbols))
    if isinstance(value, Scenario):
        return ("scenario", value.key)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, ExpertPanel):
        # Panels carry elicited judgments with no content-derived identity.
        raise UncacheableParameter("expert panels have no canonical key")
    raise UncacheableParameter(
        f"cannot build a cache key from {type(value).__name__}"
    )


def campaign_codec() -> ArtifactCodec:
    """Disk codec for CampaignResult artifacts (repro/campaign@2)."""
    from repro.persist import campaign_from_dict, campaign_to_dict

    return ArtifactCodec(to_dict=campaign_to_dict, from_dict=campaign_from_dict)


@dataclass(frozen=True)
class RunContext:
    """Seed + shared artifact store + requester attribution for one run."""

    seed: int = DEFAULT_SEED
    store: ArtifactStore = field(default_factory=ArtifactStore)
    experiment_id: str | None = None
    """The experiment this context is attributed to (for manifest events)."""

    def for_experiment(self, experiment_id: str) -> "RunContext":
        """A context sharing this store, attributed to ``experiment_id``."""
        return RunContext(
            seed=self.seed, store=self.store, experiment_id=experiment_id
        )

    def stream_seed(self, key: str) -> int:
        """A deterministic child seed for a named substream of this run."""
        return derive_seed(self.seed, key)

    # -- observability ------------------------------------------------------
    @property
    def obs(self) -> "Observability":
        """The run's observability bundle (lives on the shared store)."""
        return self.store.obs

    @property
    def metrics(self) -> "MetricsRegistry":
        """Counter/gauge/histogram registry for this run."""
        return self.store.obs.metrics

    def span(self, name: str, **args: Any):
        """Open a tracer span attributed to this run (no-op when disabled).

        Experiment drivers instrument themselves with
        ``with ctx.span("r4.metric_values", metrics=len(registry)): ...``;
        the spans land in the same timeline the engine writes for
        ``--trace``.
        """
        return self.store.obs.tracer.span(name, **args)

    # -- generic keyed artifacts -------------------------------------------
    def artifact(
        self,
        kind: str,
        name: str,
        params: dict[str, Any],
        compute,
        codec: ArtifactCodec | None = None,
    ) -> Any:
        """Memoize ``compute()`` under ``(kind, name, params)``."""
        key = ArtifactKey(
            kind=kind,
            name=name,
            params=tuple(sorted((k, _canonical(v)) for k, v in params.items())),
        )
        return self.store.get_or_compute(
            key, compute, codec=codec, requester=self.experiment_id
        )

    # -- the shared reproduction artifacts ---------------------------------
    def workload(self, n_units: int = 600, seed: int | None = None) -> "Workload":
        """The reference workload for ``(seed, n_units)``, computed once.

        Memory-only: regenerating it from the seed is several times cheaper
        than loading it back from ``--cache-dir``, so it has no disk codec.
        """
        seed = self.seed if seed is None else seed

        def compute() -> "Workload":
            from repro.bench.experiments.r3_campaign import reference_workload

            workload = reference_workload(seed=seed, n_units=n_units)
            self.metrics.inc(
                "engine.workload.units_generated", len(workload.units)
            )
            return workload

        return self.artifact(
            "workload",
            "reference",
            {"seed": seed, "n_units": n_units},
            compute,
        )

    def campaign(self, n_units: int = 600, seed: int | None = None) -> "CampaignResult":
        """The reference campaign for ``(seed, n_units)``, computed once.

        Scored from columns: the reference config is decoded and every
        tool of the reference suite scores the site rows through
        :meth:`~repro.tools.base.VulnerabilityDetectionTool.site_scores`,
        so no workload object graph, report or detection is built.  Equal
        to :func:`~repro.bench.campaign.run_campaign` of the reference
        suite over the reference workload.
        """
        seed = self.seed if seed is None else seed

        def compute() -> "CampaignResult":
            from repro.bench.campaign import CampaignResult, tool_result
            from repro.bench.experiments.r3_campaign import reference_config
            from repro.tools.suite import reference_suite
            from repro.workload.columnar import decode_columns

            with self.span("campaign.decode", n_units=n_units):
                columns = decode_columns(reference_config(seed=seed, n_units=n_units))
            results = []
            for tool in reference_suite(seed=seed):
                with self.span("campaign.tool", tool=tool.name):
                    scores = tool.site_scores(columns)
                    results.append(
                        tool_result(tool.name, scores, columns.site_vulnerable)
                    )
            self.metrics.inc("engine.campaign.tools_run", len(results))
            self.metrics.inc("engine.campaign.sites_scored", columns.n_sites)
            return CampaignResult.from_columns(columns, results)

        return self.artifact(
            "campaign",
            "reference",
            {"seed": seed, "n_units": n_units},
            compute,
            codec=campaign_codec(),
        )

    def properties_matrix(
        self,
        registry: "MetricRegistry",
        n_resamples: int,
        seed: int | None = None,
    ) -> "PropertiesMatrix":
        """The good-metric properties matrix for ``registry``, computed once
        per ``(symbols, seed, n_resamples)``."""
        seed = self.seed if seed is None else seed

        def compute() -> "PropertiesMatrix":
            from repro.properties.base import AssessmentContext
            from repro.properties.matrix import build_properties_matrix

            context = AssessmentContext.default(seed=seed, n_resamples=n_resamples)
            return build_properties_matrix(registry, context=context)

        return self.artifact(
            "properties_matrix",
            "assessment",
            {"registry": registry, "seed": seed, "n_resamples": n_resamples},
            compute,
        )

    # -- upstream experiment results ---------------------------------------
    def _experiment_key(
        self, spec: Any, passed: dict[str, Any]
    ) -> ArtifactKey | None:
        """The cache key for one experiment invocation; ``None`` if unkeyable."""
        merged: dict[str, Any] = {**spec.cache_defaults, **passed}
        if not spec.seedless:
            merged.setdefault("seed", self.seed)
        try:
            key_params = tuple(
                sorted((k, _canonical(v)) for k, v in merged.items())
            )
        except UncacheableParameter:
            return None
        return ArtifactKey("experiment", spec.experiment_id, key_params)

    def experiment(self, experiment_id: str, **params: Any) -> ExperimentResult:
        """Run (or reuse) experiment ``experiment_id`` with ``params``.

        ``None``-valued parameters are dropped — the driver applies its own
        default, and the cache key is normalized through the spec's
        ``cache_defaults`` so implicit and explicit defaults coincide.
        """
        spec = get_spec(experiment_id)
        passed = {k: v for k, v in params.items() if v is not None}

        def compute() -> ExperimentResult:
            # The runner inherits *this* context, so the work a nested run
            # performs stays attributed to the experiment that asked for it
            # — manifest records are then identical in serial and parallel.
            return spec.runner(context=self, **passed)

        key = self._experiment_key(spec, passed)
        if key is None:
            self.store.record_uncached(
                ArtifactKey("experiment", spec.experiment_id),
                requester=self.experiment_id,
            )
            return compute()
        return self.store.get_or_compute(
            key, compute, requester=self.experiment_id
        )


def ensure_context(
    context: RunContext | None, seed: int = DEFAULT_SEED
) -> RunContext:
    """``context`` if given, else a fresh standalone context for ``seed``."""
    if context is not None:
        return context
    return RunContext(seed=seed)
