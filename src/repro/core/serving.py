"""Base class shared by FlexPipe and every baseline system.

Owns the per-model routers, workload monitors, metric collection and the
queue/GPU-holding samplers, so that system implementations only differ in
*policy*: how they partition, place, scale and adapt.
"""

from __future__ import annotations

import abc
import math

from repro.core.context import ServingContext
from repro.metrics.collector import MetricsCollector, RunSummary
from repro.models.zoo import ModelSpec
from repro.pipeline.replica import ReplicaState
from repro.pipeline.router import FleetQueue, ModelRouter
from repro.qos.classes import DEFAULT_CLASS, SLO_CLASSES, SLOClass, request_priority
from repro.qos.queueing import PriorityPendingQueue
from repro.qos.signals import AttainmentTracker
from repro.refactoring.monitor import WorkloadMonitor
from repro.simulation.processes import PeriodicProcess
from repro.workloads.requests import Request


class ServingSystem(abc.ABC):
    """A serving system instance bound to one simulated cluster."""

    name = "base"

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        queue_sample_interval: float = 0.25,
        cv_window: float = 30.0,
        cv_refresh: float = 0.5,
    ):
        if not model_specs:
            raise ValueError("serving system needs at least one model")
        self.ctx = ctx
        self.sim = ctx.sim
        self.specs = {spec.name: spec for spec in model_specs}
        self.profiles = {spec.name: ctx.profile(spec) for spec in model_specs}
        # Shared by every router in all_routers() (subclasses building
        # extra pools pass it too), so fleet backlog reads are O(1).
        self.fleet_queue = FleetQueue()
        self.routers = {
            spec.name: ModelRouter(ctx.sim, spec.name, self.fleet_queue)
            for spec in model_specs
        }
        self.monitors = {
            spec.name: WorkloadMonitor(window=cv_window) for spec in model_specs
        }
        self.metrics = MetricsCollector(self.name)
        # QoS control plane: disabled until enable_qos() installs the
        # class map and attainment tracker (all hooks no-op while None).
        self.qos_classes: dict[str, SLOClass] = {}
        self.qos_tracker: AttainmentTracker | None = None
        self._gpu_holding_integral = 0.0
        self._last_sample = ctx.sim.now
        self._epoch_start = ctx.sim.now
        # Max-over-monitors CV, refreshed at most once per ``cv_refresh``
        # of simulated time.  Consumers (Eq. 9 interference, placement
        # scoring) query it on every stage start; the value held for a
        # control interval is part of the interference model, so reading
        # the monitors live would change decisions, not just cost.
        self._cv_refresh = cv_refresh
        self._cv_cache = 0.0
        self._cv_cache_time = -math.inf
        self._sampler = PeriodicProcess(
            ctx.sim, queue_sample_interval, self._sample, start_delay=0.0
        )

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Request ingress (the API-manager path of Fig. 5)."""
        if request.model not in self.routers:
            raise KeyError(f"{self.name} does not serve model {request.model!r}")
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.begin(request)
        self.metrics.on_submit(request)
        self.monitors[request.model].observe(self.sim.now)
        self._router_for(request).submit(request)

    def _router_for(self, request: Request) -> ModelRouter:
        """The router an accepted request queues on (one per model here)."""
        return self.routers[request.model]

    def _on_request_complete(self, request: Request) -> None:
        self.metrics.on_complete(request)
        if self.qos_tracker is not None:
            self.qos_tracker.observe_completion(request)

    # ------------------------------------------------------------------
    def enable_qos(
        self,
        classes: dict[str, SLOClass],
        *,
        aging: float | None = 10.0,
        attainment_window: float = 30.0,
        share_caps: dict[str, float] | None = None,
        elastic: bool = False,
    ) -> None:
        """Turn on the per-tenant QoS control plane.

        ``classes`` maps model names to their SLO class (absent tenants
        default to ``standard``).  The base layer installs the mechanisms
        every system shares — priority-aware pending queues on the
        routers (strict priority across classes, FIFO within, aging for
        anti-starvation), class-priority batch formation inside every
        replica, class-aware GPU arbitration at the allocator (priority
        contention with preempt-or-wait of lower-class pending deploys,
        plus per-tenant ``share_caps`` as max fractions of fleet GPU
        memory), and the per-tenant attainment tracker fed by completions
        — and records the class map for admission and observability.
        Adaptive systems (FlexPipe) extend this to wire the attainment
        signal into their scaling loops.
        """
        unknown = [m for m in classes if m not in self.routers]
        if unknown:
            raise KeyError(f"{self.name} does not serve model(s) {unknown}")
        unknown = [m for m in (share_caps or {}) if m not in self.routers]
        if unknown:
            raise KeyError(f"{self.name} does not serve model(s) {unknown}")
        self.qos_classes = dict(classes)
        self.qos_tracker = AttainmentTracker(
            lambda: self.sim.now, window=attainment_window
        )
        # Every router, including out-of-band pools (DistServe keys its
        # decode routers "<model>/decode"): a batch backlog in a decode
        # pool starves interactive work exactly like one in the primary
        # queue would.
        for name, router in self.all_routers().items():
            default = self.qos_class_of(name.split("/", 1)[0])
            router.use_priority_queue(
                PriorityPendingQueue(
                    lambda: self.sim.now,
                    lambda request, d=default: request_priority(request, d),
                    aging=aging,
                )
            )
        # Resource-layer arbitration: deploys carry their tenant's class
        # rank into the allocator — contending reservations resolve by
        # strict priority, an infeasible urgent deploy preempts lower-
        # class *pending* deploys (never ACTIVE replicas), and no tenant
        # may hold more than its share cap of fleet GPU memory.
        self.ctx.allocator.enable_arbitration(
            lambda model: self.qos_class_of(model).priority,
            share_caps=share_caps,
        )
        if elastic:
            # Elastic share contracts: caps become borrowable — a tenant
            # may exceed its cap into another capped tenant's idle
            # headroom, and a lender wanting its headroom back triggers
            # this system's reclaim hook (borrower excess drains first).
            self.ctx.allocator.enable_elastic_shares(
                clock=lambda: self.sim.now,
                reclaim=self._reclaim_borrower_excess,
            )
        # Class-priority batch formation inside the replica, on the same
        # queue class as the router's: mixed-class traffic on one model
        # meets FIFO nowhere between admission and the GPU.
        def batch_priority(request: Request) -> int:
            return request_priority(request, self.qos_class_of(request.model))

        factory = getattr(self, "factory", None)
        if factory is not None:
            factory.batch_priority_of = batch_priority
            factory.batch_aging = aging
        for replica in self.all_replicas():
            if replica.state is not ReplicaState.RELEASED:
                replica.use_priority_batcher(batch_priority, aging=aging)

    def qos_class_of(self, model: str) -> SLOClass:
        """The tenant's SLO class (``standard`` when unannotated)."""
        return self.qos_classes.get(model, SLO_CLASSES[DEFAULT_CLASS])

    def _reclaim_borrower_excess(self, borrower: str, nbytes: float) -> None:
        """Elastic-contract reclaim: shed ``nbytes`` of a borrower's excess.

        Cheapest capacity goes first — still-loading deploys are cancelled
        (no served work lost), then the youngest ACTIVE replicas drain.
        Replicas already DRAINING count toward the demand (their bytes are
        on the way back), so a repeated demand never over-sheds.  Releases
        flow through the normal teardown path as in-flight work finishes,
        which is what bounds reclamation latency to the drain time.
        """
        remaining = nbytes
        loading, active = [], []
        for replica in self.all_replicas():
            if replica.profile.spec.name != borrower:
                continue
            live = sum(r.nbytes for r in replica.live_reservations())
            if replica.state is ReplicaState.DRAINING:
                remaining -= live
            elif replica.state is ReplicaState.LOADING:
                loading.append((replica, live))
            elif replica.state is ReplicaState.ACTIVE:
                active.append((replica, live))
        loading.sort(key=lambda pair: pair[0].created_at, reverse=True)
        active.sort(key=lambda pair: pair[0].activated_at or 0.0, reverse=True)
        factory = getattr(self, "factory", None)
        for replica, live in loading + active:
            if remaining <= 0.0:
                break
            if factory is not None:
                factory.release(replica)
            else:
                replica.drain()
            remaining -= live

    # ------------------------------------------------------------------
    def all_routers(self) -> dict[str, ModelRouter]:
        """Every router of this system, keyed by pool name.

        Systems with out-of-band pools (e.g. DistServe's decode routers)
        override this; failure injection, auditing and backlog signals
        all discover routers through it.
        """
        return dict(self.routers)

    def total_queue(self) -> int:
        """Live backlog across every router (the admission-cap signal)."""
        return self.fleet_queue.total_queue

    def all_replicas(self) -> list:
        """Every replica this system ever created, id-deduplicated.

        Unions the factory registry (which alone knows LOADING and
        already-drained replicas) with router entries (which alone know
        replicas created outside a factory, e.g. in tests).  Failure
        injection and the invariant auditor both discover through this.
        """
        seen: dict[int, object] = {}
        factory = getattr(self, "factory", None)
        if factory is not None:
            for replica in factory.replicas:
                seen[id(replica)] = replica
        for router in self.all_routers().values():
            for replica in router.replicas:
                seen.setdefault(id(replica), replica)
        return list(seen.values())

    # ------------------------------------------------------------------
    def on_gpu_reclaimed(self, gpu) -> None:
        """Platform notification: ``gpu`` was just cordoned for reclamation.

        Base systems hold no state outside their replicas (which the
        injector drains itself); FlexPipe overrides this to abort in-flight
        refactor transitions whose *prepared* reservations sit on the
        victim, releasing that memory inside the downtime window.
        """

    # ------------------------------------------------------------------
    def max_cv(self) -> float:
        """Largest per-model inter-arrival CV, cached per refresh interval."""
        now = self.sim.now
        if now - self._cv_cache_time >= self._cv_refresh:
            self._cv_cache = max(
                (m.cv(now) for m in self.monitors.values()), default=0.0
            )
            self._cv_cache_time = now
        return self._cv_cache

    # ------------------------------------------------------------------
    def _sample(self) -> None:
        now = self.sim.now
        self.metrics.sample_queue(now, self.fleet_queue.waiting_count)
        dt = now - self._last_sample
        if dt > 0:
            self._gpu_holding_integral += self.ctx.allocator.gpus_in_use() * dt
        self._last_sample = now

    # ------------------------------------------------------------------
    def reset_measurement_epoch(self) -> None:
        """Zero utilization counters at the start of the measured window."""
        for gpu in self.ctx.cluster.gpus:
            gpu.busy_seconds = 0.0
        self._gpu_holding_integral = 0.0
        self._last_sample = self.sim.now
        self._epoch_start = self.sim.now

    def summarize(self, duration: float) -> RunSummary:
        busy = sum(g.busy_seconds for g in self.ctx.cluster.gpus)
        avg_gpus = self._gpu_holding_integral / duration if duration > 0 else 0.0
        return self.metrics.summarize(
            duration,
            gpu_busy_seconds=busy,
            gpus_used=max(round(avg_gpus), 1),
            total_gpus=self.ctx.cluster.gpu_count,
            measure_from=self._epoch_start,
        )

    def shutdown(self) -> None:
        """Stop periodic processes and drain every live replica.

        Draining (not dropping) preserves in-flight work; once the
        simulator quiesces, every :class:`StageReservation` must be back
        with the allocator — the auditor's no-leak invariant.  Subclasses
        extend this to stop their own control loops.
        """
        self._sampler.stop()
        factory = getattr(self, "factory", None)
        if factory is not None:
            for replica in factory.live_replicas():
                factory.release(replica)

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def start(self) -> None:
        """Deploy initial replicas; called once before the workload starts."""
