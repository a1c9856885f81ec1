"""Multi-tenant QoS control plane: SLO classes, priority scheduling,
class-aware admission, attainment signals, and resource arbitration.

Five layers consume this package: admission (per-tenant policy chains in
:mod:`repro.qos.admission`), routing and batch formation (the router's
pending queue and the replica batcher's queue both become the one
class-priority queue in :mod:`repro.qos.queueing`), scaling (the
attainment pressure signal in :mod:`repro.qos.signals`), resources (class
ranks drive the allocator's priority contention/preempt-or-wait and
per-tenant share caps in :mod:`repro.cluster.allocator`), and observability
(per-tenant attainment/shed/GPU-share rows in the scenario reports and
the ``repro qos`` CLI).

Admission exports resolve lazily: :mod:`repro.core.admission` imports
:mod:`repro.qos.classes` for per-request deadlines, so eagerly importing
:mod:`repro.qos.admission` (which imports core admission back) here would
create an import cycle.
"""

from __future__ import annotations

from repro.qos.classes import (
    DEFAULT_CLASS,
    SLO_CLASSES,
    SLOClass,
    effective_deadline,
    get_slo_class,
    request_priority,
)
from repro.qos.queueing import PriorityPendingQueue
from repro.qos.signals import AttainmentTracker

_LAZY = {"WeightedFairShedPolicy", "build_tenant_gate"}


def __getattr__(name: str):
    if name in _LAZY:
        from repro.qos import admission

        return getattr(admission, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AttainmentTracker",
    "DEFAULT_CLASS",
    "PriorityPendingQueue",
    "SLOClass",
    "SLO_CLASSES",
    "WeightedFairShedPolicy",
    "build_tenant_gate",
    "effective_deadline",
    "get_slo_class",
    "request_priority",
]
