"""``ALL_EXPERIMENTS``: importing this module imports every experiment."""

from repro.bench.engine.spec import all_specs

#: Experiment id -> ``run`` callable, in index order.
ALL_EXPERIMENTS = {spec.experiment_id: spec.runner for spec in all_specs()}
