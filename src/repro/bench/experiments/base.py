"""Common experiment infrastructure.

Every reproduction experiment (R1..R20, see DESIGN.md) is a module exposing
``run(...) -> ExperimentResult``.  The result carries both machine-readable
data (for tests and the agreement experiment) and rendered text sections
(the paper-table/figure analogues) so benches and examples just print it.

The definitions live in :mod:`repro.bench.result` (a leaf module the
engine can import without triggering this package's ``__init__``); this
module re-exports them for the experiment drivers and existing callers.
"""

from __future__ import annotations

from repro.bench.result import DEFAULT_SEED, ExperimentResult

__all__ = ["ExperimentResult", "DEFAULT_SEED"]
