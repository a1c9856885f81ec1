"""Per-tenant admission: class-aware policy chains behind one front door.

The null policy puts one shared queue-cap chain in front of the whole
fleet, so a batch tenant's backlog sheds everyone indiscriminately.
:func:`build_tenant_gate` gives each tenant its own chain on the same
:class:`~repro.core.admission.AdmissionGate` — queue-cap, weighted-fair
overload shedding, SLO feasibility.

Shedding is deterministic (an error-diffusion credit per tenant, no RNG),
so two runs of the same seeded scenario shed the same requests — the
property the result cache and the exactly-once shed-accounting invariant
both build on.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.core.admission import (
    AdmissionGate,
    AdmissionPolicy,
    QueueCapPolicy,
    SLOFeasiblePolicy,
)
from repro.qos.classes import SLOClass
from repro.workloads.requests import Request

# Under overload a ``fair`` tenant sheds BASE_SHED / weight of its arrivals.
BASE_SHED = 1.0
# ``protect`` tenants' SLO-feasibility estimate is this many times looser.
PROTECT_HEADROOM = 2.0


class WeightedFairShedPolicy(AdmissionPolicy):
    """Overload shedding in inverse proportion to the class weight.

    While ``overloaded()`` holds, a ``fair`` tenant sheds a deterministic
    ``BASE_SHED / weight`` fraction of its arrivals (error-diffusion, no
    randomness), a ``first`` tenant sheds everything, and a ``protect``
    tenant sheds nothing here — its only shed path is SLO feasibility.
    Off overload the policy admits unconditionally and its credit resets,
    so fairness pressure never leaks into calm periods.
    """

    def __init__(self, overloaded: Callable[[], bool], slo_class: SLOClass):
        self.overloaded = overloaded
        self.slo_class = slo_class
        self._credit = 0.0

    def admit(self, request: Request) -> bool:
        if not self.overloaded():
            self._credit = 0.0
            return True
        shed = self.slo_class.shed
        if shed == "protect":
            return True
        if shed == "first":
            return False
        self._credit += min(1.0, BASE_SHED / self.slo_class.weight)
        if self._credit >= 1.0:
            self._credit -= 1.0
            return False
        return True


# ----------------------------------------------------------------------
# The standard composition (used by the scenario driver)
# ----------------------------------------------------------------------
def build_tenant_gate(
    system,
    classes: dict[str, SLOClass],
    *,
    cap: int = 0,
) -> AdmissionGate:
    """Compose the canonical per-tenant chain in front of ``system``.

    Per tenant: a queue cap on *its own* backlog, weighted-fair shedding
    keyed off the fleet-wide backlog crossing ``cap``, and SLO
    feasibility fed by the system's live attainment tracker (``cap=0``
    drops the first two — feasibility alone).  Requires
    ``system.enable_qos`` to have run (the tracker provides the capacity
    and service estimates).

    ``PROTECT_HEADROOM`` loosens the feasibility estimate for ``protect``
    classes only: shedding a protected tenant on a noisy drain estimate
    (capacity dips transiently during every reclamation) is the worst
    admission error, and its own queue cap still bounds the backlog the
    optimism can build.
    """
    tracker = getattr(system, "qos_tracker", None)
    if tracker is None:
        raise ValueError(
            "build_tenant_gate needs system.enable_qos() first "
            "(the SLO-feasibility policy consumes its attainment tracker)"
        )

    def routers_of(model: str) -> list:
        # Every pool serving this tenant: the primary router plus any
        # out-of-band pools (keyed "<model>/<pool>", e.g. DistServe's
        # decode routers) — a backlog there must count against the
        # tenant's cap and drain-time estimate too.
        return [
            router
            for name, router in system.all_routers().items()
            if name.split("/", 1)[0] == model
        ]

    overloaded = (lambda: system.total_queue() > cap) if cap else (lambda: False)
    gate = AdmissionGate(system.submit, on_reject=tracker.observe_shed)
    for model, slo_class in classes.items():
        routers = routers_of(model)
        policies: list[AdmissionPolicy] = []
        if cap:
            policies.append(
                QueueCapPolicy(
                    lambda rs=routers: sum(r.total_queue for r in rs), cap
                )
            )
            policies.append(WeightedFairShedPolicy(overloaded, slo_class))
        policies.append(
            SLOFeasiblePolicy(
                lambda rs=routers: float(
                    sum(r.waiting_count for r in rs)
                ),
                lambda m=model: _finite_or_large(tracker.completion_rate(m)),
                lambda request, m=model: tracker.mean_service(m),
                headroom=(
                    PROTECT_HEADROOM if slo_class.shed == "protect" else 1.0
                ),
            )
        )
        gate.register(model, policies)
    return gate


def _finite_or_large(rate: float) -> float:
    """Clamp the tracker's cold-start ``inf`` to a large finite capacity
    (backlog drain estimates stay 0-ish without producing inf*0 NaNs)."""
    return rate if math.isfinite(rate) else 1e12
