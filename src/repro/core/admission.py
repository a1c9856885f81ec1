"""Admission control: protect goodput under overload.

The paper measures *goodput* — completions within the SLO (§9).  Under
sustained overload an unguarded queue serves every request late, driving
goodput toward zero even though throughput stays high.  An admission gate
in front of a serving system sheds the load that cannot make its deadline
anyway, converting useless late work into capacity for feasible requests
(the loss-system view; Erlang-B in :mod:`repro.queueing` gives the
analytic counterpart).

The gate composes with any sink::

    gate = AdmissionGate(system.submit, policy)
    WorkloadGenerator(sim, arrivals, sampler, gate.submit, duration)

Rejected requests are marked ``rejected`` and never reach the system, so
its own metrics keep counting only admitted work; the gate tracks its own
offered/shed statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.qos.classes import effective_deadline
from repro.workloads.requests import Request


class AdmissionPolicy:
    """Base policy: decide whether to admit a request *now*."""

    def admit(self, request: Request) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class AlwaysAdmit(AdmissionPolicy):
    """The null policy (what every system in the paper's evaluation does)."""

    def admit(self, request: Request) -> bool:
        return True


class QueueCapPolicy(AdmissionPolicy):
    """Reject when the backlog exceeds a fixed cap.

    ``queue_length`` is a callable so the policy always sees the live
    value (e.g. ``lambda: router.total_queue``).
    """

    def __init__(self, queue_length: Callable[[], int], cap: int):
        if cap < 0:
            raise ValueError(f"cap cannot be negative, got {cap}")
        self.queue_length = queue_length
        self.cap = cap

    def admit(self, request: Request) -> bool:
        return self.queue_length() <= self.cap


class SLOFeasiblePolicy(AdmissionPolicy):
    """Reject requests whose deadline is already unattainable.

    Estimated completion = queue drain time (backlog / current capacity)
    plus the request's own service estimate.  ``headroom`` < 1 rejects
    earlier (hedging against estimate error); > 1 admits optimistically.

    The deadline is the *request's own*: a classed request is judged
    against its QoS class target (:func:`repro.qos.classes.
    effective_deadline`), never against a deadline frozen elsewhere — a
    batch-class request must not be shed for missing an interactive
    target it was never promised.
    """

    def __init__(
        self,
        queue_length: Callable[[], float],
        capacity: Callable[[], float],
        service_estimate: Callable[[Request], float],
        *,
        headroom: float = 1.0,
    ):
        if headroom <= 0:
            raise ValueError(f"headroom must be positive, got {headroom}")
        self.queue_length = queue_length
        self.capacity = capacity
        self.service_estimate = service_estimate
        self.headroom = headroom

    def admit(self, request: Request) -> bool:
        capacity = max(self.capacity(), 1e-9)
        wait = self.queue_length() / capacity
        estimate = wait + self.service_estimate(request)
        return estimate <= effective_deadline(request) * self.headroom


@dataclass
class GateStats:
    """What the gate saw and what it shed."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0


class AdmissionGate:
    """Wraps a serving system's ``submit`` with an admission policy."""

    def __init__(
        self,
        sink: Callable[[Request], None],
        policy: AdmissionPolicy | None = None,
        *,
        on_reject: Callable[[Request], None] | None = None,
    ):
        self.sink = sink
        self.policy = policy or AlwaysAdmit()
        self.on_reject = on_reject
        self.stats = GateStats()
        # Observability: a FlightRecorder installed by a traced run (the
        # gate holds no simulator handle, so the tap lives here).
        self.recorder = None

    def submit(self, request: Request) -> None:
        self.stats.offered += 1
        if self.policy.admit(request):
            self.stats.admitted += 1
            self.sink(request)
            return
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
        if self.on_reject is not None:
            self.on_reject(request)
