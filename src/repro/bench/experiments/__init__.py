"""Experiment drivers R1..R20 (one per reproduced table/figure).

See DESIGN.md for the experiment index.  Each module exposes
``run(...) -> ExperimentResult`` and registers an
:class:`~repro.bench.engine.spec.ExperimentSpec` describing its id, title,
artifact kind, seedlessness and upstream dependencies.  :data:`MODULES`
says which module registers which id, so the registry imports only the
experiments a run asks for; ``ALL_EXPERIMENTS`` is derived from the registry
on first use, which imports them all.
"""

from repro._lazy import lazy_exports

#: Experiment id -> the module that registers it, in index order.
#: R1-R11 reproduce the paper's tables/figures; R12-R20 are extensions.
MODULES = {
    "R1": "r1_catalog",
    "R2": "r2_properties",
    "R3": "r3_campaign",
    "R4": "r4_metric_values",
    "R5": "r5_rankings",
    "R6": "r6_prevalence",
    "R7": "r7_discrimination",
    "R8": "r8_scenarios",
    "R9": "r9_ahp",
    "R10": "r10_sensitivity",
    "R11": "r11_agreement",
    "R12": "r12_pertype",
    "R13": "r13_ranking",
    "R14": "r14_significance",
    "R15": "r15_difficulty",
    "R16": "r16_stability",
    "R17": "r17_workload_stability",
    "R18": "r18_thresholds",
    "R19": "r19_run_noise",
    "R20": "r20_ecosystems",
}

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bench.experiments.base": ("DEFAULT_SEED", "ExperimentResult"),
        "repro.bench.experiments._index": ("ALL_EXPERIMENTS",),
        __name__: tuple(MODULES.values()),
    },
)
