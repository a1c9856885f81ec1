"""Per-tenant SLO-attainment signals for scaling and admission.

The :class:`AttainmentTracker` is the control plane's sensor: it watches
completions (and sheds) per tenant over a sliding window and answers the
three questions the other layers ask:

* **attainment** — what fraction of this tenant's recent outcomes met its
  class deadline?  (Sheds count as misses: a shed request is an outcome
  the tenant observed.)
* **completion rate / mean service** — the live capacity estimates the
  SLO-feasibility admission policy divides a backlog by.
* **pressure** — a scalar scale-out urgency: zero while the tenant is
  attaining, rising with the deficit weighted by the class's share, so a
  violated interactive tenant out-shouts a mildly late batch tenant at
  the autoscaler.

Every query runs on the admission/scaling hot path (once per offered
request), so per-tenant running aggregates are maintained alongside the
event deque: queries are O(events expired since the last query), not
O(window population).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.qos.classes import SLOClass, effective_deadline
from repro.workloads.requests import Request

# The attainment a tenant is owed: below it, its scaling urgency grows.
SLO_FLOOR = 0.95


@dataclass
class _TenantWindow:
    """One tenant's sliding outcome window with running aggregates.

    ``events`` holds (time, met, service) tuples — sheds record service
    NaN so they weigh on attainment but not on the capacity estimates.
    The counters mirror the deque's live contents exactly; ``prune``
    retires expired events from both.
    """

    events: deque = field(default_factory=deque)
    met: int = 0
    completions: int = 0
    service_sum: float = 0.0

    def add(self, now: float, met: bool, service: float) -> None:
        self.events.append((now, met, service))
        if met:
            self.met += 1
        if not math.isnan(service):
            self.completions += 1
            self.service_sum += service

    def prune(self, horizon: float) -> None:
        events = self.events
        while events and events[0][0] < horizon:
            _, met, service = events.popleft()
            if met:
                self.met -= 1
            if not math.isnan(service):
                self.completions -= 1
                self.service_sum -= service


class AttainmentTracker:
    """Sliding-window per-model SLO attainment and throughput."""

    def __init__(
        self,
        clock: Callable[[], float],
        *,
        window: float = 30.0,
    ):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self._clock = clock
        self.window = window
        self._tenants: dict[str, _TenantWindow] = {}
        self._started = clock()

    # ------------------------------------------------------------------
    def observe_completion(self, request: Request) -> None:
        latency = request.latency
        met = latency is not None and latency <= effective_deadline(request)
        service = request.exec_time + request.comm_time
        self._tenant(request.model).add(self._clock(), met, service)

    def observe_shed(self, request: Request) -> None:
        self._tenant(request.model).add(self._clock(), False, math.nan)

    def _tenant(self, model: str) -> _TenantWindow:
        tenant = self._tenants.get(model)
        if tenant is None:
            tenant = self._tenants[model] = _TenantWindow()
        return tenant

    def _pruned(self, model: str) -> _TenantWindow:
        tenant = self._tenant(model)
        tenant.prune(self._clock() - self.window)
        return tenant

    # ------------------------------------------------------------------
    def attainment(self, model: str) -> float | None:
        """Windowed fraction of outcomes that met the deadline.

        ``None`` while the window holds no outcome — consumers treat an
        unobserved tenant as attaining (optimistic cold start).
        """
        tenant = self._pruned(model)
        if not tenant.events:
            return None
        return tenant.met / len(tenant.events)

    def completion_rate(self, model: str) -> float:
        """Recent completions per second; ``inf`` before the first one.

        The infinity encodes the optimistic cold start the feasibility
        policy needs: with no evidence of limited capacity, backlog drain
        time estimates to zero and everything feasible is admitted.
        """
        tenant = self._pruned(model)
        if tenant.completions == 0:
            return math.inf
        elapsed = min(self.window, max(self._clock() - self._started, 1e-9))
        return tenant.completions / elapsed

    def mean_service(self, model: str) -> float:
        """Windowed mean service (exec + comm) time; 0 before data."""
        tenant = self._pruned(model)
        if tenant.completions == 0:
            return 0.0
        return tenant.service_sum / tenant.completions

    # ------------------------------------------------------------------
    def pressure(self, model: str, slo_class: SLOClass) -> float:
        """Scale-out urgency: 0 while attaining, weight x deficit below
        the floor (so class weight converts the same miss rate into more
        urgency for more important tenants)."""
        attainment = self.attainment(model)
        if attainment is None:
            return 0.0
        deficit = max(0.0, SLO_FLOOR - attainment)
        return slo_class.weight * deficit
