"""Base class shared by FlexPipe and every baseline system.

Owns the substrate every system runs on: per-model routers, workload
monitors, metric collection, the queue/GPU-holding sampler, the
:class:`ReplicaFactory`, the :class:`ControlSweep` and one
:class:`Autoscaler` per tenant.  System implementations differ only in
*policy*: the class attributes below, the plan each tenant starts at, the
placement scorer, and whatever adaptive loop a system adds on top.
"""

from __future__ import annotations

import abc
import math
from typing import Callable

from repro.core.context import ServingContext
from repro.core.deployment import STARTUP_OVERHEAD, ReplicaFactory
from repro.metrics.collector import MetricsCollector, RunSummary
from repro.models.profiler import ModelProfile
from repro.models.zoo import ModelSpec
from repro.partitioning.plan import PartitionPlan
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.pipeline.router import FleetQueue, ModelRouter
from repro.qos.classes import DEFAULT_CLASS, SLO_CLASSES, SLOClass, request_priority
from repro.qos.queueing import PriorityPendingQueue
from repro.qos.signals import AttainmentTracker
from repro.refactoring.monitor import WorkloadMonitor
from repro.refactoring.placement import GAMMA0, interference_multiplier
from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig, ControlSweep
from repro.scaling.coordinator import ScalingCoordinator
from repro.scaling.warm_cache import HostParamCache
from repro.simulation.processes import PeriodicProcess
from repro.workloads.requests import (
    OUTPUT_TOKENS,
    PROMPT_TOKENS,
    SLO_LATENCY,
    Request,
)

QUEUE_SAMPLE_INTERVAL = 0.25  # queue-length and GPU-holding sampling period
# Under QoS a waiting request gains one priority rank per QOS_AGING seconds
# (anti-starvation), in router queues and in batch formation alike.
QOS_AGING = 10.0


class ServingSystem(abc.ABC):
    """A serving system instance bound to one simulated cluster.

    ``initial_replicas`` replicas of each tenant start at ``start()``.
    Every tenant's autoscaler plans for one request shape and SLO
    (``prompt_tokens``/``output_tokens``/``slo_deadline``: the primary
    tenant's), and every replica serves at ``batch_cap``.  The class
    attributes are the system's policy constants; the substrate reads
    them once, at construction.
    """

    name = "base"
    # Max-over-monitors CV, refreshed at most once per ``cv_refresh``
    # seconds of simulated time.  Consumers (Eq. 9 interference, placement
    # scoring) query it on every stage start; the value held for a
    # control interval is part of the interference model, so reading the
    # monitors live would change decisions, not just cost.
    cv_refresh = 0.5
    # Parameter loading: the cold-load speed-up and the serverless
    # start-up overhead every scale-up pays.
    loading_speedup = 1.0
    startup_overhead = STARTUP_OVERHEAD
    # Placement: a preference for GPUs other models occupy (Eq. 6 with
    # its sign flipped), and Eq. 9's base multiplexing penalty.
    prefer_colocation = False
    gamma0 = GAMMA0
    # FlexPipe's deploy mechanisms: the host-memory parameter cache, the
    # HRG/affinity scaling coordinator and pipelined stage loading.
    warm_cache: HostParamCache | None = None
    coordinator: ScalingCoordinator | None = None
    pipelined_loading = False
    # Scaling: whether the system autoscales at all, and its settings.
    reactive = True
    scale_interval = AutoscalerConfig.interval
    scale_cooldown = AutoscalerConfig.scale_out_cooldown
    idle_window = AutoscalerConfig.idle_window
    min_replicas = AutoscalerConfig.min_replicas
    max_replicas = AutoscalerConfig.max_replicas
    cv_headroom = AutoscalerConfig.cv_headroom

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        initial_replicas: int = 1,
        batch_cap: int | None = None,
        prompt_tokens: int = PROMPT_TOKENS,
        output_tokens: int = OUTPUT_TOKENS,
        slo_deadline: float = SLO_LATENCY,
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
            spec.name: WorkloadMonitor() for spec in model_specs
        }
        self.metrics = MetricsCollector(self.name)
        # QoS control plane: disabled until enable_qos() installs the
        # class map and attainment tracker (all hooks no-op while None).
        self.qos_classes: dict[str, SLOClass] = {}
        self.qos_tracker: AttainmentTracker | None = None
        self._gpu_holding_integral = 0.0
        self._last_sample = ctx.sim.now
        self._epoch_start = ctx.sim.now
        self._cv_cache = 0.0
        self._cv_cache_time = -math.inf
        self._sampler = PeriodicProcess(
            ctx.sim, QUEUE_SAMPLE_INTERVAL, self._sample, start_delay=0.0
        )
        self.initial_replicas = initial_replicas
        self.factory = ReplicaFactory(
            ctx,
            routers=self.routers,
            metrics=self.metrics,
            on_request_complete=self._on_request_complete,
            warm_cache=self.warm_cache,
            coordinator=self.coordinator,
            interference=self._interference,
            batch_cap=batch_cap,
            loading_speedup=self.loading_speedup,
            startup_overhead=self.startup_overhead,
            pipelined_loading=self.pipelined_loading,
        )
        # The request shape and SLO every tenant's autoscaler plans for;
        # a system's offline planners read the shape from here too.
        self.scaler_config = AutoscalerConfig(
            interval=self.scale_interval,
            slo_deadline=slo_deadline,
            idle_window=self.idle_window,
            min_replicas=self.min_replicas,
            max_replicas=self.max_replicas,
            scale_out_cooldown=self.scale_cooldown,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            cv_headroom=self.cv_headroom,
        )
        self._sweep = ControlSweep(ctx.sim, self.scale_interval)
        self.autoscalers: dict[str, Autoscaler] = {}

    def _build_autoscalers(
        self,
        plan_for: dict[str, PartitionPlan | Callable[[float, int], PartitionPlan]],
    ) -> None:
        """One autoscaler per tenant on the shared sweep (none unless
        ``reactive``); ``plan_for`` maps each model to its scale-out plan,
        fixed or chosen per tick.

        A subclass calls this once its per-model policy exists.  The first
        join starts the sweep's process, so a control loop the subclass
        creates afterwards fires after the sweep at a shared instant.
        """
        if not self.reactive:
            return
        for model, plan in plan_for.items():
            self.autoscalers[model] = Autoscaler(
                self.sim,
                self.routers[model],
                self.monitors[model],
                self.profiles[model],
                self.metrics,
                self._deploy,
                self.factory.release,
                plan,
                self.scaler_config,
                sweep=self._sweep,
                factory=self.factory,
            )

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _initial_plan(self, model: str) -> PartitionPlan:
        """The plan ``start`` deploys ``model`` at."""

    def _scorer(self, model: str) -> Callable | None:
        """The placement scorer of a deploy of ``model`` (None: the
        factory's own, the coordinator's where one is wired)."""
        return None

    def _deploy(
        self, profile: ModelProfile, plan: PartitionPlan, **kwargs
    ) -> PipelineReplica:
        """Deploy one replica with this system's placement scorer."""
        return self.factory.deploy(
            profile, plan, scorer=self._scorer(profile.spec.name), **kwargs
        )

    def deploy_extra(self, model: str, rng) -> PipelineReplica:
        """Deploy one replica of ``model`` beyond what its autoscaler
        counts (a scripted scale-out), at the plan ``start`` deploys.
        Systems with a choice to make draw it from ``rng``.  Raises
        :class:`AllocationError` when the cluster cannot host it."""
        return self._deploy(self.profiles[model], self._initial_plan(model))

    def executors(self) -> dict:
        """Per-model refactoring executors (none: granularity is fixed)."""
        return {}

    def _interference(self, gpu) -> float:
        """Eq. 9 execution-time inflation on shared GPUs, at this system's γ0.

        Uses the max-CV cache: this runs on *every* stage start, and the
        windowed CV only moves on the control-loop timescale.
        """
        return interference_multiplier(gpu, self.max_cv(), gamma0=self.gamma0)

    def start(self) -> None:
        """Deploy the initial replicas; called once before the workload starts."""
        for model in self.specs:
            self._deploy_initial(model, self.initial_replicas)

    def _deploy_initial(self, model: str, count: int) -> None:
        """Deploy ``count`` replicas of ``model``'s initial plan; its
        autoscaler counts them as loading."""
        plan = self._initial_plan(model)
        scaler = self.autoscalers.get(model)
        for _ in range(count):
            replica = self._deploy(self.profiles[model], plan, event_kind="initial")
            if scaler is not None:
                scaler.track(replica)

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
        self.qos_tracker = AttainmentTracker(lambda: self.sim.now)
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
                    aging=QOS_AGING,
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

        self.factory.batch_priority_of = batch_priority
        self.factory.batch_aging = QOS_AGING
        for replica in self.all_replicas():
            if replica.state is not ReplicaState.RELEASED:
                replica.use_priority_batcher(batch_priority, aging=QOS_AGING)
        # Share-cap awareness: an autoscaler only asks for replicas the
        # tenant's remaining headroom can host.  With elastic contracts
        # on, share_headroom already includes borrowable idle headroom,
        # so the same hook becomes contract-aware.
        for model, scaler in self.autoscalers.items():
            scaler.share_headroom = (
                lambda m=model: self.ctx.allocator.share_headroom(m)
            )

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
        for replica, live in loading + active:
            if remaining <= 0.0:
                break
            self.factory.release(replica)
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
        for replica in self.factory.replicas:
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
        """Largest per-model inter-arrival CV, cached per refresh interval.

        Every CV is >= 0, so a monitor too short of stamps to have one
        (its CV is exactly 0.0) is not read.
        """
        now = self.sim.now
        if now - self._cv_cache_time >= self.cv_refresh:
            self._cv_cache = max(
                (
                    m.cv(now)
                    for m in self.monitors.values()
                    if not m.window.too_few_stamps()
                ),
                default=0.0,
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
        for replica in self.factory.live_replicas():
            self.factory.release(replica)
        for scaler in self.autoscalers.values():
            scaler.stop()
