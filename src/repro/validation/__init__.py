"""Lifecycle-invariant validation: the auditor, the chaos audit, fuzzers.

FlexPipe's central claim (§6, Fig. 6) is that inflight refactoring drops
no request and leaks no resource while stage chains are swapped live.
This package turns that claim into machine-checked conservation laws:

* :class:`InvariantAuditor` — checks the invariants over a live serving
  system (cheap subset mid-run, the full set at simulation quiesce);
* :mod:`repro.validation.chaos` — a seeded
  :class:`~repro.scenarios.spec.ScenarioSpec` generator: random
  interleavings of refactor / scale-out / drain / GPU reclamation
  against random workloads — single-model small-cluster and multi-class,
  elastic-capped paper-cluster fleets — run on every system by the
  scenario engine's driver with the auditor attached (``repro audit
  --seeds N`` fans cases out via the parallel runner).  It imports the
  scenario engine, which imports this package's auditor, so its names
  are not re-exported here;
* :mod:`repro.validation.migration_fuzz` — direct fuzzing of the
  transfer/migration layer: random :class:`MigrationItem` sets against
  the LPT planner's scheduling invariants and random contention
  workloads against the fair-share link model (``repro fuzz``).
"""

from repro.validation.auditor import (
    InvariantAuditor,
    InvariantViolationError,
    Violation,
)
from repro.validation.migration_fuzz import (
    MigrationFuzzCase,
    MigrationFuzzReport,
    check_method_selection,
    check_schedule,
    fuzz_migration_case,
    fuzz_seeds,
)

__all__ = [
    "InvariantAuditor",
    "InvariantViolationError",
    "MigrationFuzzCase",
    "MigrationFuzzReport",
    "Violation",
    "check_method_selection",
    "check_schedule",
    "fuzz_migration_case",
    "fuzz_seeds",
]
