"""Per-tenant SLO classes: the vocabulary of the QoS control plane.

FlexPipe's evaluation metric is *goodput under SLO*, but production
serverless fleets do not share one SLO: an interactive chat tenant and an
offline batch-embedding tenant on the same fragmented cluster differ by
orders of magnitude in what "on time" means and in what the platform owes
them under overload.  An :class:`SLOClass` bundles the three knobs the
rest of the control plane consumes:

``latency_target``
    The deadline defining goodput for requests of this class.
``priority``
    Strict-priority rank for scheduling (0 = most urgent).  Routers pop
    lower ranks first; an aging knob prevents starvation of higher ranks.
``weight``
    Weighted-fair share under overload: when the cluster sheds, a class
    sheds inversely proportional to its weight.
``shed``
    How the class participates in overload shedding: ``protect`` is only
    ever shed by its own SLO-feasibility (never by fair-share pressure),
    ``fair`` sheds at its weighted share, ``first`` is the sacrificial
    class that sheds whenever the cluster is overloaded.

The registry is deliberately tiny and closed (four classes) — tenants
pick a class, they do not invent bespoke ones — which is what makes
cross-tenant comparisons (attainment tables, shed fairness) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.requests import Request

SHED_POLICIES = ("protect", "fair", "first")


@dataclass(frozen=True)
class SLOClass:
    """One service class: deadline + scheduling priority + overload share."""

    name: str
    latency_target: float  # seconds; the goodput deadline
    priority: int  # strict-priority rank, 0 = most urgent
    weight: float  # weighted-fair share under overload
    shed: str = "fair"  # "protect" | "fair" | "first"

    def __post_init__(self) -> None:
        if self.latency_target <= 0:
            raise ValueError(
                f"latency target must be positive, got {self.latency_target}"
            )
        if self.priority < 0:
            raise ValueError(f"priority cannot be negative, got {self.priority}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.shed not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed!r}; choose from {SHED_POLICIES}"
            )


#: The closed class catalog.  ``standard`` mirrors the historical default
#: (`ModelScript.slo_latency` = 10 s), so annotating a tenant ``standard``
#: changes nothing about its workload — only makes the class explicit.
SLO_CLASSES: dict[str, SLOClass] = {
    cls.name: cls
    for cls in (
        SLOClass("interactive", latency_target=2.5, priority=0, weight=8.0, shed="protect"),
        SLOClass("standard", latency_target=10.0, priority=1, weight=4.0, shed="fair"),
        SLOClass("batch", latency_target=30.0, priority=2, weight=2.0, shed="fair"),
        SLOClass("best_effort", latency_target=120.0, priority=3, weight=1.0, shed="first"),
    )
}

DEFAULT_CLASS = "standard"


def get_slo_class(name: str) -> SLOClass:
    """Look up a class; raises ``KeyError`` naming the catalog."""
    try:
        return SLO_CLASSES[name]
    except KeyError:
        raise KeyError(
            f"unknown SLO class {name!r}; available: {sorted(SLO_CLASSES)}"
        ) from None


def effective_deadline(request: "Request") -> float:
    """The admission/scheduling deadline for one request.

    A classed request is judged against *its own class's* target — not
    against whatever ``slo_latency`` a shared sampler configuration froze
    in — so a batch-class request is never shed for missing an
    interactive deadline it was never promised.  Unclassed requests keep
    their per-request ``slo_latency`` (the historical behaviour).
    """
    name = getattr(request, "slo_class", None)
    if name:
        return SLO_CLASSES[name].latency_target
    return request.slo_latency


def request_priority(request: "Request", default: SLOClass | None = None) -> int:
    """Strict-priority rank for one request.

    Per-request class wins; otherwise the tenant's ``default`` class;
    otherwise ``standard``.
    """
    name = getattr(request, "slo_class", None)
    if name:
        return SLO_CLASSES[name].priority
    if default is not None:
        return default.priority
    return SLO_CLASSES[DEFAULT_CLASS].priority
