"""Queue- and rate-driven replica autoscaling for one model.

FlexPipe wires this with the Eq. 11 granularity decision (fine-grained
scale-out units during bursts) and Eq. 5 coordination-aware capacity;
reactive baselines use it with a fixed granularity; static baselines do
not create one at all.

A serving system ticks all of its autoscalers from one
:class:`ControlSweep`; a tenant whose ticks provably decide nothing
sleeps until an input of its decision moves, and the event that moves it
marks the tenant due.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from repro.cluster.allocator import AllocationError, InfeasibleCertificate
from repro.metrics.collector import MetricsCollector, ScalingEvent
from repro.models.profiler import ModelProfile
from repro.partitioning.plan import PartitionPlan
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.pipeline.router import ModelRouter
from repro.pipeline.sizing import floor_footprint, operating_batch
from repro.refactoring.granularity import estimate_throughput, instance_count
from repro.refactoring.monitor import WorkloadMonitor
from repro.simulation.engine import Simulator
from repro.simulation.processes import PeriodicProcess, VisitSet, arm, disarm
from repro.workloads.requests import OUTPUT_TOKENS, PROMPT_TOKENS, SLO_LATENCY

if TYPE_CHECKING:
    from repro.cluster.cluster import Cluster
    from repro.core.deployment import ReplicaFactory


QUEUE_FACTOR = 1.5  # queue > factor x capacity-per-interval => burst
TARGET_UTILIZATION = 0.6  # Eq. 5 capacity headroom for μ_total


@dataclass(frozen=True)
class AutoscalerConfig:
    interval: float = 0.5
    slo_deadline: float = SLO_LATENCY
    idle_window: float = 30.0  # reclamation window before scale-in
    min_replicas: int = 1
    max_replicas: int = 8
    scale_out_cooldown: float = 1.0
    prompt_tokens: int = PROMPT_TOKENS
    output_tokens: int = OUTPUT_TOKENS
    # Eq. 12's burst-feasibility headroom: effective target utilization is
    # divided by (1 + cv_headroom * CV), so bursty workloads hold spare
    # capacity proportional to their variability.  0 disables (baselines
    # without FlexPipe's burst-aware provisioning).
    cv_headroom: float = 0.0


def _has_accepting(router: ModelRouter) -> bool:
    for replica in router.replicas:
        if replica.accepting:
            return True
    return False


def _hook(name: str, doc: str) -> property:
    """An optional input of every tick; installing one marks the tenant."""
    attr = "_" + name

    def install(self, hook) -> None:
        setattr(self, attr, hook)
        self._mark()

    return property(attrgetter(attr), install, doc=doc)


class ControlSweep:
    """One periodic process ticking every autoscaler of a serving system.

    Per-tenant periodic processes created at one instant fire the ticks of
    each grid instant back to back, in creation order, with no other
    event between them.  One process that ticks its members in joining
    order is therefore the same control loop, one engine event per
    instant instead of one per tenant.  Members join at the instant the
    sweep is created, and the process starts when the first one joins,
    so it takes that member's place in the event queue.

    A sleeping member (``Autoscaler._wake`` set) is not ticked.  Each
    instant visits, in joining order, the awake members and the sleepers
    marked *due* since their last visit; a due sleeper's wake check decides
    whether it ticks.  The events that move a sleeper's inputs mark it
    (see ``Autoscaler._sleep_at_floor`` and ``Autoscaler._park``).
    A parked sleeper's certificate can lapse only when the cluster's
    capacity epoch moves, so every parked sleeper is marked when the
    sweep sees the epoch move: at the start of an instant, and after
    each tick.  The first of them to rescan and fail again renews the
    certificate of every same-shape sleeper, whose wake checks then
    stay false.
    """

    def __init__(self, sim: Simulator, interval: float):
        self.sim = sim
        self.interval = interval
        self._members: list[Autoscaler] = []  # by rank: joining order
        self._joined: set[int] = set()  # ranks that have not left
        self._due = VisitSet()  # awake members and marked sleepers
        self._parked: set[int] = set()
        self._cluster: Cluster | None = None  # whose epoch parks read
        self._epoch = 0  # the epoch every parked sleeper was checked at
        self._process: PeriodicProcess | None = None
        self._origin = sim.now

    def join(self, scaler: "Autoscaler") -> int:
        """Add ``scaler`` (awake) and return its rank."""
        if scaler.config.interval != self.interval:
            raise ValueError(
                f"autoscaler interval {scaler.config.interval} differs from "
                f"the sweep's {self.interval}"
            )
        if self.sim.now != self._origin:
            # A later member's own process would tick on a shifted grid.
            raise ValueError(
                f"autoscalers join a sweep at its creation instant "
                f"t={self._origin}, not t={self.sim.now}"
            )
        if self._process is None:
            self._process = PeriodicProcess(self.sim, self.interval, self._tick)
        rank = len(self._members)
        self._members.append(scaler)
        self._joined.add(rank)
        self._due.add(rank)
        return rank

    def leave(self, rank: int) -> None:
        """Drop a member; the process stops with the last one."""
        self._joined.discard(rank)
        self._due.discard(rank)
        self._parked.discard(rank)
        if not self._joined and self._process is not None:
            self._process.stop()

    def mark(self, rank: int) -> None:
        """An input of the member's decision moved: visit it next (a
        member that left is never visited again)."""
        if rank in self._joined:
            self._due.add(rank)

    def rest(self, rank: int) -> None:
        """The member fell asleep: visit it only once marked."""
        self._due.discard(rank)

    def park(self, rank: int, cluster: Cluster) -> None:
        """The member fell asleep on a certificate of ``cluster``'s
        current capacity epoch: mark it too once the epoch moves."""
        self.rest(rank)
        if not self._parked:
            self._cluster = cluster
            self._epoch = cluster.capacity_epoch
        self._parked.add(rank)

    def wake(self, rank: int) -> None:
        """The member is awake: visit it every instant."""
        self._parked.discard(rank)
        self.mark(rank)

    def _check_epoch(self) -> None:
        epoch = self._cluster.capacity_epoch
        if epoch != self._epoch:
            self._epoch = epoch
            for rank in self._parked:
                self._due.add(rank)

    def _tick(self) -> None:
        members = self._members
        due = self._due
        if self._parked:
            self._check_epoch()
        for rank in due.visit():
            scaler = members[rank]
            wake = scaler._wake
            if wake is not None and not wake():
                due.discard(rank)  # still asleep
                continue
            scaler.tick()
            if self._parked:
                self._check_epoch()  # the tick may have released capacity


class Autoscaler:
    """Reconciles a model's replica count with its live workload.

    ``plan_for`` is either a fixed :class:`PartitionPlan` (reactive
    baselines) or a callable choosing the scale-out plan from the live
    CV and queue.  ``sweep`` is the serving system's shared
    :class:`ControlSweep`; without one the autoscaler gets its own.
    ``factory`` is the :class:`ReplicaFactory` that sizes the tenant's
    replicas; capacity estimates read its batch cap (none: uncapped).
    """

    def __init__(
        self,
        sim: Simulator,
        router: ModelRouter,
        monitor: WorkloadMonitor,
        profile: ModelProfile,
        metrics: MetricsCollector,
        deploy: Callable[..., PipelineReplica],
        release: Callable[[PipelineReplica], None],
        plan_for: PartitionPlan | Callable[[float, int], PartitionPlan],
        config: AutoscalerConfig | None = None,
        *,
        sweep: ControlSweep | None = None,
        factory: ReplicaFactory | None = None,
    ):
        self.sim = sim
        self.factory = factory
        self.router = router
        self.monitor = monitor
        self.profile = profile
        self.metrics = metrics
        self.deploy = deploy
        self.release_replica = release
        if isinstance(plan_for, PartitionPlan):
            self.fixed_plan: PartitionPlan | None = plan_for
            self.plan_for = lambda cv, queue, p=plan_for: p
        else:
            self.fixed_plan = None
            self.plan_for = plan_for
        self.config = config or AutoscalerConfig()
        # The fleet an idle tick settles at: desired with rate = CV =
        # queue = 0 (Eq. 5 floors at one replica, scale-to-zero at zero).
        self._floor = min(self.config.min_replicas, self.config.max_replicas)
        self.loading: list[PipelineReplica] = []
        self._slo_pressure: Callable[[], float] | None = None
        self._share_headroom: Callable[[], float] | None = None
        self._on_park: Callable[[], object] | None = None
        self._blocked_since: float | None = None
        # The plan whose scale-out last failed, with the allocator's proof
        # that it cannot place until capacity is added (None = not parked).
        self._parked: tuple[PartitionPlan, InfeasibleCertificate] | None = None
        self._low_since: float | None = None
        self._last_scale_out = -math.inf
        self._throughput_cache: dict[tuple, float] = {}
        # The sleeping tenant's wake check (None = awake), and the arrival
        # count an idle sleeper went to sleep at.
        self._wake: Callable[[], bool] | None = None
        self._observed = 0
        self._sweep = sweep if sweep is not None else ControlSweep(
            sim, self.config.interval
        )
        self._rank = self._sweep.join(self)
        # Called by the events that move an input of a sleeping tenant.
        self._mark = partial(self._sweep.mark, self._rank)

    slo_pressure = _hook(
        "slo_pressure",
        """Optional QoS hook: a callable returning the tenant's scale-out
        urgency (>= 0, see AttainmentTracker.pressure).  While the tenant
        misses its class SLO the effective utilization target drops, so a
        violated interactive tenant scales out before a happy batch
        tenant.  None (the default) changes nothing.""",
    )
    share_headroom = _hook(
        "share_headroom",
        """Optional QoS hook: bytes this tenant may still reserve under its
        share cap (math.inf = uncapped).  When set, scale-out desire is
        clamped to what the cap can host, so the autoscaler never churns
        the allocator with deploys the cap is guaranteed to refuse.  None
        (the default) changes nothing.""",
    )
    on_park = _hook(
        "on_park",
        """Optional hook run by a parked tick in place of the deploy it
        skips, for deploy paths that touch state before they allocate.
        None (the default) changes nothing.""",
    )

    def stop(self) -> None:
        self._disarm()
        self._wake = None
        self._sweep.leave(self._rank)

    def track(self, replica: PipelineReplica) -> None:
        """Count ``replica``, deployed for this tenant, as loading."""
        self.loading.append(replica)
        self._mark()

    # ------------------------------------------------------------------
    def _sleep_at_floor(self) -> None:
        """Skip ticks until an arrival, the router's fleet or its pending
        queue, or a hook moves: ``_floor_woken`` then decides."""
        self._observed = self.monitor.total_observed
        self._wake = self._floor_woken
        self._sweep.rest(self._rank)
        arm(self.monitor, self._mark)
        arm(self.router, self._mark)

    def _park(self) -> None:
        """Skip ticks until the router's fleet, ``loading`` or a hook
        moves, or the capacity epoch does: ``_parked_woken`` then
        decides.  Arrivals cannot unpark a fixed plan."""
        self._wake = self._parked_woken
        self._sweep.park(self._rank, self._parked[1].allocator.cluster)
        arm(self.router, self._mark)

    def _wake_up(self) -> None:
        self._disarm()
        self._wake = None
        self._sweep.wake(self._rank)

    def _disarm(self) -> None:
        """Take back the marks a sleep armed (none while awake)."""
        if self._wake is not None:
            disarm(self.monitor, self._mark)
            disarm(self.router, self._mark)

    # ------------------------------------------------------------------
    @property
    def batch_cap(self) -> int | None:
        """The operating batch cap, owned by the deploying factory."""
        return None if self.factory is None else self.factory.batch_cap

    def replica_throughput(
        self, plan: PartitionPlan, batch: int | None = None
    ) -> float:
        """Estimated req/s of one replica of ``plan`` serving at ``batch``.

        ``batch`` defaults to the plan's maximum (clipped by the operating
        batch cap); pass a replica's *effective* batch to price in memory
        degradation.
        """
        cfg = self.config
        effective = max(operating_batch(plan, self.batch_cap, batch), 1)
        key = (plan.n_stages, effective)
        value = self._throughput_cache.get(key)
        if value is None:
            value = estimate_throughput(
                self.profile,
                plan,
                batch=effective,
                prompt_tokens=cfg.prompt_tokens,
                output_tokens=cfg.output_tokens,
            )
            self._throughput_cache[key] = value
        return value

    def replica_capacity(self, replica: PipelineReplica) -> float:
        """Live capacity of one deployed replica.

        Uses the replica's *effective* ``max_batch`` (memory degradation
        may have halved it below ``plan.max_batch``), so a degraded fleet
        is not over-estimated — the over-estimate used to suppress burst
        scale-outs exactly when capacity was most impaired.
        """
        return self.replica_throughput(replica.plan, batch=replica.max_batch)

    # ------------------------------------------------------------------
    def tick(self) -> None:
        now = self.sim.now
        cfg = self.config
        if self._wake is not None:
            self._wake_up()
        if self.loading:
            self.loading = [
                r for r in self.loading if r.state is ReplicaState.LOADING
            ]
        active = self.router.active_replicas
        queue = self.router.total_queue
        if (
            queue == 0
            and self.slo_pressure is None
            and len(active) + len(self.loading) == self._floor
            and self.monitor.window_count(now) == 0
        ):
            # Idle at the floor: the body below would compute rate = CV =
            # queue = 0, so desired is exactly the floor, equal to the
            # fleet, and settle.  What it skips only reads state or fills
            # value-neutral caches.  (The QoS pressure hook prunes running
            # float sums, so a tenant with one always takes the full body.)
            self._end_blocked_episode()
            self._low_since = None
            # Every later tick takes this path too until an input moves,
            # and it rewrites only what it just wrote: sleep.
            self._sleep_at_floor()
            return
        cv = self.monitor.cv(now)
        rate = self.monitor.arrival_rate(now)
        plan = self.plan_for(cv, queue)
        per_replica = self.replica_throughput(plan)

        # Eq. 5: coordination-aware instance count for the offered rate,
        # with Eq. 12's burst headroom lowering the utilization target as
        # the live CV rises, and QoS attainment pressure lowering it
        # further while the tenant's class SLO is being missed.
        pressure = self.slo_pressure() if self.slo_pressure is not None else 0.0
        effective_util = TARGET_UTILIZATION / (
            (1.0 + cfg.cv_headroom * cv) * (1.0 + pressure)
        )
        desired = instance_count(
            rate / max(effective_util, 1e-6), per_replica, plan.n_stages
        )
        # Burst pressure: queued work the current capacity cannot clear in
        # one SLO budget demands more instances now (Eq. 12 spirit).
        # The right-hand side is at least QUEUE_FACTOR (>= 0), so below it
        # the fleet's capacity cannot matter and is not summed.
        if queue > QUEUE_FACTOR and queue > QUEUE_FACTOR * max(
            sum(self.replica_capacity(r) for r in active) * cfg.interval, 1.0
        ):
            backlog_units = math.ceil(
                queue / max(per_replica * cfg.slo_deadline * 0.5, 1.0)
            )
            desired = max(desired, len(active) + backlog_units)
        if cfg.min_replicas == 0 and rate <= 0.0 and queue == 0:
            # Scale-to-zero: Eq. 5's instance count floors at one replica,
            # so an explicit zero floor with no arrivals in the monitor
            # window and nothing queued means the tenant is truly idle.
            desired = 0
        desired = min(max(desired, cfg.min_replicas), cfg.max_replicas)

        total = len(active) + len(self.loading)
        if self.share_headroom is not None and desired > total:
            # Respect the tenant's share cap: only ask for replicas the
            # remaining headroom can actually host.  The clamp never
            # *lowers* desired below the current fleet — the cap blocks
            # growth, it does not force scale-in.
            fit = self._replicas_within_headroom(plan)
            desired = min(desired, max(total + fit, total))
        if desired > total:
            self._scale_out(desired - total, plan, now)
            return
        self._end_blocked_episode()
        if desired < len(active) and queue == 0:
            self._maybe_scale_in(active, desired, now)
        else:
            self._low_since = None

    def _floor_woken(self) -> bool:
        """Whether a floor sleeper's tick could leave the idle path.

        The window only loses stamps between arrivals, so it stays empty
        until ``total_observed`` moves; the queue, the hook and the fleet
        (accepting replicas plus ``loading`` still LOADING) are read as
        the tick would read them.
        """
        if (
            self.monitor.total_observed != self._observed
            or self.router.total_queue
            or self.slo_pressure is not None
        ):
            return True
        fleet = 0
        for replica in self.router.replicas:
            if replica.accepting:
                fleet += 1
        for replica in self.loading:
            if replica.state is ReplicaState.LOADING:
                fleet += 1
        return fleet != self._floor

    def _sleeps_while_parked(self) -> bool:
        """Whether every tick parks again until the wake check fires.

        With a fixed plan, no replica and a floor of at least one,
        ``desired > total`` whatever the rate, CV or queue, so the tick
        reaches this park; without hooks it only reads state on the way.
        """
        return (
            self.fixed_plan is not None
            and self._floor >= 1
            and not self._parked_woken()
        )

    def _parked_woken(self) -> bool:
        """Whether a parked sleeper's tick could do anything but park:
        a hook or a replica appeared, or the certificate lapsed.  (The
        plan and the floor are fixed, so they are not read again.)"""
        return (
            self.on_park is not None
            or self.share_headroom is not None
            or self.slo_pressure is not None
            or bool(self.loading)
            or _has_accepting(self.router)
            or not self._parked[1].holds()
        )

    def _end_blocked_episode(self) -> None:
        """Demand no longer exceeds the fleet: a later failure starts a new
        episode, and a later first-try deploy waited for nothing."""
        self._blocked_since = None
        self._parked = None

    def _replicas_within_headroom(self, plan: PartitionPlan) -> int:
        """How many more replicas of ``plan`` fit under the share cap.

        Sized at the memory-degradation *floor* batch — the smallest
        footprint ``ReplicaFactory.deploy`` would actually accept — so the
        clamp never blocks a scale-out the degrade path could still place
        (it only prunes deploys the cap is guaranteed to refuse).
        """
        headroom = self.share_headroom()
        if math.isinf(headroom):
            return self.config.max_replicas
        replica_bytes = floor_footprint(
            plan, self.batch_cap, self.profile.spec.kv_bytes_per_request
        )
        if replica_bytes <= 0:
            return self.config.max_replicas
        return int(headroom // replica_bytes)

    # ------------------------------------------------------------------
    def _scale_out(self, n: int, plan: PartitionPlan, now: float) -> None:
        if now - self._last_scale_out < self.config.scale_out_cooldown:
            return
        parked = self._parked
        if parked is not None and parked[0] == plan and parked[1].holds():
            # The last deploy of this plan failed on a placement certified
            # impossible at the current capacity epoch (by this tenant or a
            # same-shape one, which is the same proof).  ReplicaFactory
            # fails last on its degradation-floor batch; stage sizes grow
            # with the batch and the matching test is monotone in them,
            # so every rung of a new deploy would fail too: return as
            # that deploy would.
            if self.on_park is not None:
                self.on_park()
            elif self._sleeps_while_parked():
                self._park()
            return
        wait = now - self._blocked_since if self._blocked_since is not None else 0.0
        for _ in range(n):
            try:
                replica = self.deploy(self.profile, plan, wait_time=wait)
            except AllocationError as exc:
                cert = exc.certificate
                self._parked = (plan, cert) if cert is not None else None
                if cert is not None and self._sleeps_while_parked():
                    # The next tick would reach the park above: sleep now.
                    self._park()
                # One event per blocked episode, not per retry: retained
                # events must not grow with the retry rate.
                if self._blocked_since is None:
                    self._blocked_since = now
                    self.metrics.on_event(
                        ScalingEvent(
                            time=now, kind="alloc_blocked", detail=plan.model_name
                        )
                    )
                return
            self.loading.append(replica)
        self._end_blocked_episode()
        self._last_scale_out = now

    def _maybe_scale_in(
        self, active: list[PipelineReplica], desired: int, now: float
    ) -> None:
        if self._low_since is None:
            self._low_since = now
            return
        if now - self._low_since < self.config.idle_window:
            return
        # Reclaim the most recently activated replicas first: older ones
        # carry the longest-lived warm state.
        excess = len(active) - desired
        victims = sorted(
            active, key=lambda r: r.activated_at or 0.0, reverse=True
        )[:excess]
        for victim in victims:
            self.release_replica(victim)
        self._low_since = None
