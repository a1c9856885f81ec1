"""Per-tenant admission: class-aware policy chains behind one front door.

The historical harness puts one shared :class:`~repro.core.admission.
AdmissionGate` (a single queue-cap) in front of the whole fleet, so a
batch tenant's backlog sheds everyone indiscriminately.  The
:class:`TenantAdmissionController` replaces that with one *policy chain
per tenant* — queue-cap, weighted-fair overload shedding, SLO
feasibility — while keeping the gate contract every existing consumer
(auditor, reports) relies on: an aggregate ``stats`` triple plus
per-tenant triples, with ``offered == admitted + shed`` at both levels by
construction.

Shedding is deterministic (an error-diffusion credit per tenant, no RNG),
so two runs of the same seeded scenario shed the same requests — the
property the result cache and the exactly-once shed-accounting invariant
both build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.admission import (
    AdmissionPolicy,
    GateStats,
    QueueCapPolicy,
    SLOFeasiblePolicy,
)
from repro.qos.classes import SLOClass
from repro.workloads.requests import Request


class WeightedFairShedPolicy(AdmissionPolicy):
    """Overload shedding in inverse proportion to the class weight.

    While ``overloaded()`` holds, a ``fair`` tenant sheds a deterministic
    ``base_shed / weight`` fraction of its arrivals (error-diffusion, no
    randomness), a ``first`` tenant sheds everything, and a ``protect``
    tenant sheds nothing here — its only shed path is SLO feasibility.
    Off overload the policy admits unconditionally and its credit resets,
    so fairness pressure never leaks into calm periods.
    """

    def __init__(
        self,
        overloaded: Callable[[], bool],
        slo_class: SLOClass,
        *,
        base_shed: float = 1.0,
    ):
        if base_shed <= 0:
            raise ValueError(f"base_shed must be positive, got {base_shed}")
        self.overloaded = overloaded
        self.slo_class = slo_class
        self.base_shed = base_shed
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
        self._credit += min(1.0, self.base_shed / self.slo_class.weight)
        if self._credit >= 1.0:
            self._credit -= 1.0
            return False
        return True


@dataclass
class _Tenant:
    """One registered tenant: its class, policy chain and accounting."""

    slo_class: SLOClass
    policies: list[AdmissionPolicy] = field(default_factory=list)
    stats: GateStats = field(default_factory=GateStats)


class TenantAdmissionController:
    """Routes each request through its own tenant's admission chain.

    Mirrors :class:`~repro.core.admission.AdmissionGate`'s interface
    (``submit``, ``stats``, ``on_reject``) so the auditor and every
    report treat it as just another gate; tenants additionally expose
    per-model accounting through :meth:`tenant_stats`.  Requests of an
    unregistered model pass through unconditionally (the null policy) but
    still count in the aggregate, so the books always balance.
    """

    def __init__(
        self,
        sink: Callable[[Request], None],
        *,
        on_reject: Callable[[Request], None] | None = None,
        on_shed: Callable[[str], None] | None = None,
    ):
        self.sink = sink
        self.on_reject = on_reject
        self.on_shed = on_shed  # e.g. AttainmentTracker.observe_shed
        self.stats = GateStats()
        self._tenants: dict[str, _Tenant] = {}
        # Observability: a FlightRecorder installed by a traced run (same
        # tap contract as AdmissionGate).
        self.recorder = None

    # ------------------------------------------------------------------
    def register(
        self,
        model: str,
        slo_class: SLOClass,
        policies: list[AdmissionPolicy],
    ) -> None:
        if model in self._tenants:
            raise ValueError(f"tenant {model!r} already registered")
        self._tenants[model] = _Tenant(slo_class, list(policies))

    @property
    def tenants(self) -> dict[str, SLOClass]:
        return {name: t.slo_class for name, t in self._tenants.items()}

    def tenant_stats(self) -> dict[str, GateStats]:
        """Per-tenant offered/admitted/shed triples (accounting surface)."""
        return {name: t.stats for name, t in self._tenants.items()}

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        self.stats.offered += 1
        tenant = self._tenants.get(request.model)
        if tenant is None:
            self.stats.admitted += 1
            self.sink(request)
            return
        tenant.stats.offered += 1
        if all(policy.admit(request) for policy in tenant.policies):
            tenant.stats.admitted += 1
            self.stats.admitted += 1
            self.sink(request)
            return
        tenant.stats.rejected += 1
        self.stats.rejected += 1
        request.rejected = True
        if self.recorder is not None:
            self.recorder.record(
                request.arrival_time,
                "shed",
                rid=request.rid,
                model=request.model,
                slo_class=request.slo_class,
            )
        if self.on_shed is not None:
            self.on_shed(request.model)
        if self.on_reject is not None:
            self.on_reject(request)


# ----------------------------------------------------------------------
# The standard composition (used by the scenario driver)
# ----------------------------------------------------------------------
def build_tenant_controller(
    system,
    classes: dict[str, SLOClass],
    *,
    cap: int = 0,
    protect_headroom: float = 2.0,
) -> TenantAdmissionController:
    """Compose the canonical per-tenant chain in front of ``system``.

    Per tenant: a queue cap on *its own* backlog, weighted-fair shedding
    keyed off the fleet-wide backlog crossing ``cap``, and SLO
    feasibility fed by the system's live attainment tracker (``cap=0``
    drops the first two — feasibility alone).  Requires
    ``system.enable_qos`` to have run (the tracker provides the capacity
    and service estimates).

    ``protect_headroom`` loosens the feasibility estimate for ``protect``
    classes only: shedding a protected tenant on a noisy drain estimate
    (capacity dips transiently during every reclamation) is the worst
    admission error, and its own queue cap still bounds the backlog the
    optimism can build.
    """
    tracker = getattr(system, "qos_tracker", None)
    if tracker is None:
        raise ValueError(
            "build_tenant_controller needs system.enable_qos() first "
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
    controller = TenantAdmissionController(
        system.submit, on_shed=tracker.observe_shed
    )
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
                    protect_headroom if slo_class.shed == "protect" else 1.0
                ),
            )
        )
        controller.register(model, slo_class, policies)
    return controller


def _finite_or_large(rate: float) -> float:
    """Clamp the tracker's cold-start ``inf`` to a large finite capacity
    (backlog drain estimates stay 0-ish without producing inf*0 NaNs)."""
    return rate if math.isfinite(rate) else 1e12
