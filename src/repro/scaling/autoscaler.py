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
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
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


def _marked() -> bool:
    """A settled sleeper's wake check: every mark is a move of one of its
    inputs (or its alarm), so a marked settled sleeper ticks."""
    return True


def _hook(name: str, doc: str) -> property:
    """An optional input of every tick; installing one marks the tenant."""
    attr = "_" + name

    def install(self, hook) -> None:
        setattr(self, attr, hook)
        self.mark()

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
    (see ``Autoscaler._settle`` and ``Autoscaler._park``), and so does the
    sleeper's *alarm*: the first grid instant at which the clock alone
    could change a settled sleeper's decision, added to the due set at
    the start of that instant.
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
        # The grid as the process steps it: the latest instant fired (the
        # origin before the first) and the instants after it stepped so far.
        self._last = sim.now
        self._ahead: list[float] = []
        # Alarms: a heap of (instant, rank) and each sleeper's live one.
        self._alarms: list[tuple[float, int]] = []
        self._alarm_of: dict[int, float] = {}

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
        self._alarm_of.pop(rank, None)
        if not self._joined and self._process is not None:
            self._process.stop()

    def mark(self, rank: int) -> None:
        """An input of the member's decision moved: visit it next (a
        member that left is never visited again)."""
        if rank in self._joined:
            self._due.add(rank)

    def rest(self, rank: int, alarm: float | None = None) -> None:
        """The member fell asleep: visit it only once marked, or at the
        grid instant ``alarm``."""
        self._due.discard(rank)
        if alarm is None:
            self._alarm_of.pop(rank, None)
        elif self._alarm_of.get(rank) != alarm:
            # (The same alarm set again is in the heap already.)
            self._alarm_of[rank] = alarm
            heappush(self._alarms, (alarm, rank))

    def park(self, rank: int, cluster: Cluster) -> None:
        """The member fell asleep on a certificate of ``cluster``'s
        current capacity epoch: mark it too once the epoch moves."""
        self.rest(rank)
        if not self._parked:
            self._cluster = cluster
            self._epoch = cluster.capacity_epoch
        self._parked.add(rank)

    def wake(self, rank: int) -> None:
        """The member is awake: visit it every instant.  (Its alarm may
        still fire: a mark of an awake member changes nothing.)"""
        self._parked.discard(rank)
        self.mark(rank)

    def first(self, holds: Callable[[float], bool], near: float) -> float:
        """The first grid instant after the latest one fired at which
        ``holds`` is true.

        ``holds`` must be monotone over the grid (once true, true at every
        later instant) and come true eventually.  The grid is stepped as
        the process steps it, ``t + interval``, so each instant is the
        float the sweep will fire at, and only ``holds`` at such instants
        decides.  ``near`` (a closed-form estimate) only picks where the
        walk starts: it steps back while the previous instant holds, then
        forward until one does.
        """
        self.next_instant()  # the grid holds one instant at least
        ahead = self._ahead
        while ahead[-1] < near:
            ahead.append(ahead[-1] + self.interval)
        i = bisect_left(ahead, near)
        while i and holds(ahead[i - 1]):
            i -= 1
        while True:
            if i == len(ahead):
                ahead.append(ahead[-1] + self.interval)
            if holds(ahead[i]):
                return ahead[i]
            i += 1

    def next_instant(self) -> float:
        """The first grid instant after the latest one fired."""
        ahead = self._ahead
        while ahead and ahead[0] <= self._last:
            del ahead[0]  # fired since it was stepped
        if not ahead:
            ahead.append(self._last + self.interval)
        return ahead[0]

    def before(self, holds: Callable[[float], bool], alarm: float) -> float | None:
        """The first grid instant after the latest one fired, and before
        the stepped instant ``alarm``, at which the monotone ``holds`` is
        true (None if none is)."""
        ahead = self._ahead
        hi = bisect_left(ahead, alarm)
        if not hi or not holds(ahead[hi - 1]):
            return None
        return ahead[bisect_left(ahead, True, key=holds, hi=hi - 1)]

    def _check_epoch(self) -> None:
        epoch = self._cluster.capacity_epoch
        if epoch != self._epoch:
            self._epoch = epoch
            for rank in self._parked:
                self._due.add(rank)

    def _tick(self) -> None:
        members = self._members
        due = self._due
        now = self._last = self.sim.now
        alarms = self._alarms
        while alarms and alarms[0][0] <= now:
            alarm, rank = heappop(alarms)
            if self._alarm_of.get(rank) == alarm:
                del self._alarm_of[rank]
                self.mark(rank)
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
    replicas; capacity estimates read its batch cap.
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
        factory: ReplicaFactory,
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
        # The sleeping tenant's wake check (None = awake).
        self._wake: Callable[[], bool] | None = None
        self._sweep = sweep if sweep is not None else ControlSweep(
            sim, self.config.interval
        )
        self._rank = self._sweep.join(self)
        self._stopped = False  # left the sweep: a tick never sleeps
        # Called by the events that move an input of a sleeping tenant
        # (FlexPipe calls it when its serving target, read by ``plan_for``,
        # moves).
        self.mark = partial(self._sweep.mark, self._rank)
        # The mark a sleep armed and its sources (empty while awake).
        self._armed: tuple = ()
        self._rouse = self._roused

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
        self._stopped = True
        self._sweep.leave(self._rank)

    def track(self, replica: PipelineReplica) -> None:
        """Count ``replica``, deployed for this tenant, as loading."""
        self.loading.append(replica)
        self.mark()

    # ------------------------------------------------------------------
    def _settle(
        self, threshold: int | None = None, fixed=(), cooldown: bool = False
    ) -> None:
        """Sleep after a tick that acted on nothing, until an input moves
        (an arrival, the router's fleet or queue, ``loading``, a hook,
        FlexPipe's serving target) or the clock alone could change the
        decision: the oldest window stamp expires, the scale-in countdown
        or (``cooldown``) the scale-out cooldown ends, or desired (from
        the rate and ``fixed``) falls below ``threshold``.  The alarm is
        the first grid instant at which one of the tick's own tests flips,
        evaluated without trimming the window (docs/architecture.md).
        A stopped tenant, ticked by hand, does not sleep."""
        if self._stopped:
            return
        sweep = self._sweep
        following = sweep.next_instant()
        window = self.monitor.window
        alarm = None
        if len(window):
            if window.expires(following):
                return  # it would tick there anyway: stay awake
            alarm = sweep.first(window.expires, window.oldest + window.window)
        low = self._low_since
        if low is not None:
            idle = self.config.idle_window
            ends = sweep.first(lambda t: not t - low < idle, low + idle)
            alarm = ends if alarm is None else min(alarm, ends)
        if cooldown:
            last, wait = self._last_scale_out, self.config.scale_out_cooldown
            ends = sweep.first(lambda t: not t - last < wait, last + wait)
            alarm = ends if alarm is None else min(alarm, ends)
        if threshold is not None and alarm is not None:
            # Until an expiry, rate = n / span only falls, so desired is
            # non-increasing and the test is monotone.
            desired = self._desired
            alarm = sweep.before(
                lambda t: desired(window.rate_at(t), *fixed) < threshold, alarm
            ) or alarm
        if alarm == following:
            return  # likewise
        self._wake = _marked
        sweep.rest(self._rank, alarm)
        router = self.router
        self._arm(self._rouse, self.monitor, router, router.queue_moves)

    def _park(self) -> None:
        """Skip ticks until the router's fleet, ``loading`` or a hook
        moves, or the capacity epoch does: ``_parked_woken`` then
        decides.  Arrivals cannot unpark a fixed plan."""
        if self._stopped:
            return
        self._wake = self._parked_woken
        self._sweep.park(self._rank, self._parked[1].allocator.cluster)
        self._arm(self.mark, self.router)

    def _wake_up(self) -> None:
        self._disarm()
        self._wake = None
        self._sweep.wake(self._rank)

    def _arm(self, mark: Callable[[], None], *sources) -> None:
        """Have each input source call ``mark`` when it moves."""
        for source in sources:
            arm(source, mark)
        self._armed = (mark, sources)

    def _disarm(self) -> None:
        """Take back the marks a sleep armed (none while awake)."""
        if self._armed:
            mark, sources = self._armed
            for source in sources:
                disarm(source, mark)
            self._armed = ()

    def _roused(self) -> None:
        """An input of a settled sleeper moved: mark it due.  Every mark
        makes it tick, so its later moves before that tick change nothing
        and the marks are taken back at once (a parked sleeper, whose wake
        check may keep it asleep, keeps its marks)."""
        self._disarm()
        self.mark()

    # ------------------------------------------------------------------
    @property
    def batch_cap(self) -> int | None:
        """The operating batch cap, owned by the deploying factory."""
        return self.factory.batch_cap

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
            self._settle()  # the window is empty: no alarm
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
        lower = cfg.min_replicas
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
            lower = max(lower, len(active) + backlog_units)
        scale = max(effective_util, 1e-6)
        desired = self._desired(rate, scale, per_replica, plan.n_stages, lower)
        if cfg.min_replicas == 0 and rate <= 0.0 and queue == 0:
            # Scale-to-zero: Eq. 5's instance count floors at one replica,
            # so an explicit zero floor with no arrivals in the monitor
            # window and nothing queued means the tenant is truly idle.
            desired = self._floor

        total = len(active) + len(self.loading)
        capped = self.share_headroom is not None and desired > total
        if capped:
            # Respect the tenant's share cap: only ask for replicas the
            # remaining headroom can actually host.  The clamp never
            # *lowers* desired below the current fleet — the cap blocks
            # growth, it does not force scale-in.
            fit = self._replicas_within_headroom(plan)
            desired = min(desired, max(total + fit, total))
        # A tick that neither deploys, releases nor opens a blocked episode
        # settles (see _settle); it wakes where its branch could change.
        # Some stay awake instead.  The pressure hook moves with time and
        # the headroom with other tenants' reservations, and neither marks.
        # A tenant whose replicas hold queued work and whose window expects
        # an arrival within the interval is nearly always marked (by a
        # completion or an arrival) before the next instant: settling it
        # would only cost.
        settles = (
            self.slo_pressure is None
            and not capped
            and not (self.router.queued and rate * cfg.interval >= 1.0)
        )
        if desired > total:
            if now - self._last_scale_out < cfg.scale_out_cooldown:
                if settles:
                    fixed = (scale, per_replica, plan.n_stages, lower)
                    self._settle(total + 1, fixed, cooldown=True)
                return
            self._scale_out(desired - total, plan, now)
            return
        self._end_blocked_episode()
        if desired < len(active) and queue == 0:
            if self._low_since is None:
                self._low_since = now
            elif not now - self._low_since < cfg.idle_window:
                self._scale_in(active, desired)
                return
            if settles:
                self._settle()
        else:
            self._low_since = None
            if settles:
                fixed = (scale, per_replica, plan.n_stages, lower)
                self._settle(len(active) if queue == 0 else None, fixed)

    def _desired(
        self, rate: float, scale: float, per_replica: float, n_stages: int, lower: int
    ) -> int:
        """Eq. 5's instance count at ``rate``, clamped to ``lower`` and the
        ceiling: the tick's desired, and its value at instants ahead for a
        settled sleeper's alarm."""
        count = instance_count(rate / scale, per_replica, n_stages)
        return min(max(count, lower), self.config.max_replicas)

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

    def _scale_in(self, active: list[PipelineReplica], desired: int) -> None:
        # Reclaim the most recently activated replicas first: older ones
        # carry the longest-lived warm state.
        excess = len(active) - desired
        victims = sorted(
            active, key=lambda r: r.activated_at or 0.0, reverse=True
        )[:excess]
        for victim in victims:
            self.release_replica(victim)
        self._low_since = None
