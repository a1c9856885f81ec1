"""Admission control: protect goodput under overload.

The paper measures *goodput* — completions within the SLO (§9).  Under
sustained overload an unguarded queue serves every request late, driving
goodput toward zero even though throughput stays high.  An admission gate
in front of a serving system sheds the load that cannot make its deadline
anyway, converting useless late work into capacity for feasible requests
(the loss-system view; Erlang-B in :mod:`repro.queueing` gives the
analytic counterpart).

The gate composes with any sink::

    gate = AdmissionGate(system.submit, [policy])
    WorkloadGenerator(sim, arrivals, sampler, gate.submit, duration)

Rejected requests are marked ``rejected`` and never reach the system, so
its own metrics keep counting only admitted work; the gate books its own
offered/admitted/shed triples, in aggregate and per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.qos.classes import effective_deadline
from repro.workloads.requests import Request


class AdmissionPolicy:
    """Base policy: decide whether to admit a request *now*."""

    def admit(self, request: Request) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


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


@dataclass(slots=True)
class GateStats:
    """What the gate saw and what it shed."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0


class AdmissionGate:
    """Wraps a serving system's ``submit`` with per-model policy chains.

    ``policies`` is the chain of every model that has no chain of its own;
    :meth:`register` gives a tenant its own.  A request is admitted when
    every policy of its chain admits it, evaluated in order and stopping
    at the first rejection (a stateful policy sees only the requests that
    reached it); an empty chain admits everything, the policy of every
    system in the paper's evaluation.  Each request is booked under its
    model as well as in the aggregate ``stats``, so the per-model triples
    sum to the aggregate.
    """

    def __init__(
        self,
        sink: Callable[[Request], None],
        policies: Sequence[AdmissionPolicy] = (),
        *,
        on_reject: Callable[[Request], None] | None = None,
    ):
        self.sink = sink
        self.policies = list(policies)
        self.on_reject = on_reject  # e.g. AttainmentTracker.observe_shed
        self.stats = GateStats()
        # Model -> (its policy chain, its books).
        self._tenants: dict[str, tuple[list[AdmissionPolicy], GateStats]] = {}
        # Observability: a FlightRecorder installed by a traced run (the
        # gate holds no simulator handle, so the tap lives here).
        self.recorder = None

    def register(self, model: str, policies: Sequence[AdmissionPolicy]) -> None:
        """Give ``model`` its own policy chain."""
        if model in self._tenants:
            raise ValueError(f"tenant {model!r} already registered")
        self._tenants[model] = (list(policies), GateStats())

    def tenant_stats(self) -> dict[str, GateStats]:
        """Per-model offered/admitted/shed triples."""
        return {model: books for model, (_, books) in self._tenants.items()}

    def submit(self, request: Request) -> None:
        try:
            policies, books = self._tenants[request.model]
        except KeyError:
            policies, books = self._tenants[request.model] = (
                self.policies,
                GateStats(),
            )
        stats = self.stats
        stats.offered += 1
        books.offered += 1
        for policy in policies:
            if not policy.admit(request):
                self._shed(request, books)
                return
        stats.admitted += 1
        books.admitted += 1
        self.sink(request)

    def _shed(self, request: Request, books: GateStats) -> None:
        self.stats.rejected += 1
        books.rejected += 1
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
