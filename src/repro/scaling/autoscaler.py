"""Queue- and rate-driven replica autoscaling for one model.

FlexPipe wires this with the Eq. 11 granularity decision (fine-grained
scale-out units during bursts) and Eq. 5 coordination-aware capacity;
reactive baselines use it with a fixed granularity; static baselines do
not create one at all.

A serving system ticks all of its autoscalers from one
:class:`ControlSweep`; a tenant whose ticks provably decide nothing
sleeps until an input of its decision moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from repro.simulation.processes import PeriodicProcess

if TYPE_CHECKING:
    from repro.core.deployment import ReplicaFactory


@dataclass(frozen=True)
class AutoscalerConfig:
    interval: float = 0.5
    slo_deadline: float = 5.0
    queue_factor: float = 1.5  # queue > factor x capacity-per-interval => burst
    idle_window: float = 30.0  # reclamation window before scale-in
    min_replicas: int = 1
    max_replicas: int = 8
    target_utilization: float = 0.6
    scale_out_cooldown: float = 1.0
    beta1: float = 1.0  # Eq. 5 coordination overhead
    beta2: float = 0.02
    prompt_tokens: int = 512
    output_tokens: int = 16
    # Eq. 12's burst-feasibility headroom: effective target utilization is
    # divided by (1 + cv_headroom * CV), so bursty workloads hold spare
    # capacity proportional to their variability.  0 disables (baselines
    # without FlexPipe's burst-aware provisioning).
    cv_headroom: float = 0.0


def _never() -> bool:
    return False


def _has_accepting(router: ModelRouter) -> bool:
    for replica in router.replicas:
        if replica.accepting:
            return True
    return False


class ControlSweep:
    """One periodic process ticking every autoscaler of a serving system.

    Per-tenant periodic processes created at one instant fire the ticks of
    each grid instant back to back, in creation order, with no other
    event between them.  One process that ticks its members in joining
    order is therefore the same control loop, one engine event per
    instant instead of one per tenant.  Members join at the instant the
    sweep is created, and the process starts when the first one joins,
    so it takes that member's place in the event queue.

    A sleeping member (``Autoscaler._wake`` set) is not ticked: the sweep
    asks its wake check instead (O(fleet) at most), and ticks it at the
    first grid instant the check fires.
    """

    def __init__(self, sim: Simulator, interval: float):
        self.sim = sim
        self.interval = interval
        self._members: tuple[Autoscaler, ...] = ()
        self._process: PeriodicProcess | None = None
        self._origin = sim.now

    def join(self, scaler: "Autoscaler") -> None:
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
        self._members += (scaler,)

    def leave(self, scaler: "Autoscaler") -> None:
        """Drop ``scaler``; the process stops with the last member."""
        self._members = tuple(m for m in self._members if m is not scaler)
        if not self._members and self._process is not None:
            self._process.stop()

    def _tick(self) -> None:
        for scaler in self._members:
            wake = scaler._wake
            if wake is None or wake():
                scaler.tick()


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
        # Optional QoS hook: a callable returning the tenant's scale-out
        # urgency (>= 0, see AttainmentTracker.pressure).  While the
        # tenant misses its class SLO the effective utilization target
        # drops, so a violated interactive tenant scales out before a
        # happy batch tenant.  None (the default) changes nothing.
        self.slo_pressure: Callable[[], float] | None = None
        # Optional QoS hook: bytes this tenant may still reserve under its
        # share cap (math.inf = uncapped).  When set, scale-out desire is
        # clamped to what the cap can host, so the autoscaler never churns
        # the allocator with deploys the cap is guaranteed to refuse.
        # None (the default) changes nothing.
        self.share_headroom: Callable[[], float] | None = None
        # Optional hook run by a parked tick in place of the deploy it
        # skips, for deploy paths that touch state before they allocate.
        # None (the default) changes nothing.
        self.on_park: Callable[[], object] | None = None
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
        self._sweep.join(self)

    def stop(self) -> None:
        self._wake = _never  # a member stopped mid-sweep is not ticked
        self._sweep.leave(self)

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
        self._wake = None
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
            self._observed = self.monitor.total_observed
            self._wake = self._floor_woken
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
        effective_util = cfg.target_utilization / (
            (1.0 + cfg.cv_headroom * cv) * (1.0 + pressure)
        )
        desired = instance_count(
            rate / max(effective_util, 1e-6),
            per_replica,
            plan.n_stages,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
        )
        # Burst pressure: queued work the current capacity cannot clear in
        # one SLO budget demands more instances now (Eq. 12 spirit).
        # The right-hand side is at least queue_factor (>= 0), so below it
        # the fleet's capacity cannot matter and is not summed.
        if queue > cfg.queue_factor and queue > cfg.queue_factor * max(
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
            # impossible at the current capacity epoch.  ReplicaFactory
            # fails last on its degradation-floor batch; stage sizes grow
            # with the batch and the matching test is monotone in them,
            # so every rung of a new deploy would fail too: return as
            # that deploy would.
            if self.on_park is not None:
                self.on_park()
            elif self._sleeps_while_parked():
                self._wake = self._parked_woken
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
                    self._wake = self._parked_woken
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
