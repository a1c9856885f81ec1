"""Serverless instance reclamation / GPU failure injection.

Serverless platforms reclaim scaled-down resources *immediately* (§7,
"scaled-down model instances have their resources immediately reallocated
to competing workloads"), and production GPUs fail or get preempted by
higher-priority tenants.  This module injects both disturbances into a
running serving system so resilience can be measured:

* :class:`ReclamationPolicy` — picks victim GPUs (random, most-idle, or
  serving-biased to stress the data plane);
* :class:`FailureInjector` — a Poisson process of reclamation events; each
  event drains the replicas whose stages occupy the victim GPU (serverless
  reclamation grants a grace period, so in-flight work completes) and
  blocks the GPU for an exponential downtime;
* :class:`RecoveryTracker` — measures capacity-restoration time per event,
  the figure of merit for the recovery experiments.

The injector deliberately works *through public interfaces* (routers,
reservations, the allocator) — the serving systems under test are not
modified and must recover using their own control loops, exactly like the
production rollout in §9.6.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU
from repro.simulation.engine import Simulator


class VictimChoice(enum.Enum):
    """How the platform picks which GPU to reclaim."""

    RANDOM = "random"  # uniform over all GPUs
    IDLE_FIRST = "idle_first"  # platform-friendly: reclaim the least busy
    SERVING_BIASED = "serving_biased"  # adversarial: prefer GPUs hosting models


@dataclass(frozen=True)
class ReclamationPolicy:
    """Victim selection + timing of reclamation events."""

    mtbf: float = 300.0  # mean time between events, cluster-wide (s)
    downtime_mean: float = 120.0  # mean unavailability per event (s)
    choice: VictimChoice = VictimChoice.SERVING_BIASED

    def __post_init__(self) -> None:
        if self.mtbf <= 0:
            raise ValueError(f"mtbf must be positive, got {self.mtbf}")
        if self.downtime_mean < 0:
            raise ValueError("downtime_mean cannot be negative")


@dataclass
class ReclamationEvent:
    """One injected failure and what it hit."""

    time: float
    gpu_id: str
    downtime: float
    replicas_hit: int
    models_hit: tuple[str, ...] = ()
    recovered_at: float | None = None

    @property
    def recovery_time(self) -> float | None:
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.time


class RecoveryTracker:
    """Marks events recovered once serving capacity is restored.

    "Recovered" means every model hit by the event again has at least the
    replica count it had immediately before the event — the definition
    used by the failure-recovery example and bench.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._watch: list[tuple[ReclamationEvent, dict[str, int], object]] = []

    def watch(self, event: ReclamationEvent, routers: dict) -> None:
        baseline = {
            model: len([r for r in router.replicas if r.accepting])
            for model, router in routers.items()
            if model in event.models_hit
        }
        self._watch.append((event, baseline, routers))

    def poll(self) -> None:
        """Check open events; call from a periodic process."""
        still_open = []
        for event, baseline, routers in self._watch:
            ok = all(
                len([r for r in routers[m].replicas if r.accepting]) >= n
                for m, n in baseline.items()
            )
            if ok:
                event.recovered_at = self.sim.now
            else:
                still_open.append((event, baseline, routers))
        self._watch = still_open

    @property
    def open_events(self) -> int:
        return len(self._watch)


class FailureInjector:
    """Injects reclamation events into a live serving system.

    Parameters
    ----------
    system:
        Any :class:`~repro.core.serving.ServingSystem`; only its public
        ``routers`` and the shared allocator/cluster are touched.
    policy:
        Timing and victim selection.
    tracker:
        Optional :class:`RecoveryTracker`; when given, every event is
        watched until the system restores the pre-event replica counts.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        rng: np.random.Generator,
        system,
        policy: ReclamationPolicy | None = None,
        tracker: RecoveryTracker | None = None,
    ):
        self.sim = sim
        self.cluster = cluster
        self.rng = rng
        self.system = system
        self.policy = policy or ReclamationPolicy()
        self.tracker = tracker
        self.events: list[ReclamationEvent] = []
        self._stopped = False
        self._blocked: dict[str, float] = {}  # gpu id -> blocked nbytes
        self._block_stamp: dict[str, float] = {}  # gpu id -> active event time

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(self.policy.mtbf))
        self.sim.schedule(delay, self._fire)

    # ------------------------------------------------------------------
    def _fire(self) -> None:
        if self._stopped:
            return
        victim = self._pick_victim()
        if victim is not None:
            self._reclaim(victim)
        self._schedule_next()

    def inject(self, gpu: GPU | None = None) -> ReclamationEvent | None:
        """Fire one reclamation immediately (chaos/fuzz entry point).

        Picks a victim by policy when ``gpu`` is not given; GPUs already
        under reclamation are skipped.  Returns the event, or ``None``
        when no eligible victim exists.
        """
        if gpu is not None and gpu.gid in self._blocked:
            return None
        victim = gpu if gpu is not None else self._pick_victim()
        if victim is None:
            return None
        self._reclaim(victim)
        return self.events[-1]

    def _pick_victim(self) -> GPU | None:
        gpus = [g for g in self.cluster.gpus if g.gid not in self._blocked]
        if not gpus:
            return None
        choice = self.policy.choice
        if choice is VictimChoice.RANDOM:
            return gpus[int(self.rng.integers(len(gpus)))]
        if choice is VictimChoice.IDLE_FIRST:
            idle = [g for g in gpus if not g.model_tags]
            pool = idle or gpus
            return pool[int(self.rng.integers(len(pool)))]
        serving = [g for g in gpus if g.model_tags]
        pool = serving or gpus
        return pool[int(self.rng.integers(len(pool)))]

    # ------------------------------------------------------------------
    def _all_routers(self) -> list:
        """Every router of the system under test (incl. out-of-band pools
        like DistServe's decode routers, via ``all_routers``)."""
        return list(self.system.all_routers().values())

    def _replicas_on(self, gpu: GPU) -> list:
        # Routers only know ACTIVE replicas; ``all_replicas`` also
        # surfaces LOADING ones, whose reservations already sit on the
        # victim GPU — without it they would dodge the reclamation and
        # later activate on a GPU the platform took back.
        # ``live_reservations`` additionally covers superseded (retired)
        # chains still draining in-flight jobs on the victim.
        return [
            replica
            for replica in self.system.all_replicas()
            if any(res.gpu is gpu for res in replica.live_reservations())
        ]

    def _reclaim(self, gpu: GPU) -> None:
        downtime = float(self.rng.exponential(self.policy.downtime_mean))
        victims = self._replicas_on(gpu)
        models = tuple(sorted({r.profile.spec.name for r in victims}))
        event = ReclamationEvent(
            time=self.sim.now,
            gpu_id=gpu.gid,
            downtime=downtime,
            replicas_hit=len(victims),
            models_hit=models,
        )
        self.events.append(event)
        if self.tracker is not None and victims:
            self.tracker.watch(event, self.system.routers)
        # Grace-period reclamation: replicas drain (in-flight work finishes,
        # no new batches) and their reservations release through the normal
        # teardown path.
        for replica in victims:
            for router in self._all_routers():
                router.remove(replica)
            replica.drain()
        # Cordon the GPU (the allocator refuses serving placements on it,
        # with no timing window) and block whatever memory is — or
        # becomes — free: the first top-up absorbs today's free bytes
        # (possibly none on a packed GPU) and the periodic chain swallows
        # memory the draining victims release while the downtime runs.
        gpu.cordoned = True
        # Reclamation notification (before the blocker absorbs free bytes):
        # systems abort in-flight refactor transitions whose *prepared*
        # reservations sit on the victim — those are stages of no replica,
        # so the drain above cannot reach them — and the memory they free
        # is swallowed by the top-up below, inside the downtime window.
        hook = getattr(self.system, "on_gpu_reclaimed", None)
        if hook is not None:
            hook(gpu)
        self._blocked[gpu.gid] = 0.0
        self._block_stamp[gpu.gid] = event.time
        self._top_up(gpu, event.time)
        self.sim.schedule(downtime, self._restore, gpu, event.time)
        if self.tracker is not None:
            self.tracker.poll()

    _TOP_UP_INTERVAL = 1.0  # how often a blocked GPU re-absorbs freed bytes

    def _top_up(self, gpu: GPU, stamp: float) -> None:
        # The stamp check retires a stale chain — after restore, or when
        # its window overlaps a *re*-reclamation of the same GPU.
        if self._block_stamp.get(gpu.gid) != stamp:
            return
        # Absorb a hair less than the free bytes: at the 10^11-byte scale
        # ``(blocked + free) - blocked`` can round a few float ulps above
        # ``free``, which would trip resize()'s over-commit tolerance.
        grab = gpu.free_memory - 1e-3
        if grab > 0:
            # The blocker allocation is created lazily at the first
            # positive absorption, so a packed GPU (free <= 0, possibly a
            # float-negative hair at this scale) never risks a rejected
            # zero-byte reserve.
            alloc_id = f"reclaimed/{stamp:.3f}"
            total = self._blocked[gpu.gid] + grab
            if alloc_id in gpu.stage_allocations:
                gpu.resize(alloc_id, total)
            else:
                gpu.reserve(alloc_id, grab)
            self._blocked[gpu.gid] = total
        self.sim.schedule(self._TOP_UP_INTERVAL, self._top_up, gpu, stamp)

    def _restore(self, gpu: GPU, stamp: float) -> None:
        alloc_id = f"reclaimed/{stamp:.3f}"
        if alloc_id in gpu.stage_allocations:
            gpu.release(alloc_id)
        gpu.uncordon()
        self._blocked.pop(gpu.gid, None)
        self._block_stamp.pop(gpu.gid, None)

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate statistics over all injected events."""
        hits = [e for e in self.events if e.replicas_hit > 0]
        recoveries = [
            e.recovery_time for e in hits if e.recovery_time is not None
        ]
        return {
            "events": len(self.events),
            "events_hitting_replicas": len(hits),
            "replicas_hit": sum(e.replicas_hit for e in self.events),
            "recovered": len(recoveries),
            "mean_recovery_s": float(np.mean(recoveries)) if recoveries else None,
            "max_recovery_s": float(np.max(recoveries)) if recoveries else None,
        }
