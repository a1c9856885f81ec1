"""Replica deployment: allocation, parameter loading, warm starts, teardown.

Loading happens over the shared fair-share links, so concurrent scale-ups
genuinely contend (the effect HRG coordination mitigates).  On teardown a
replica's parameters stay in the host-memory cache of their servers,
turning later scale-ups on those servers into warm starts (§7).
"""

from __future__ import annotations

import itertools
from typing import Callable

from repro.cluster.allocator import (
    StageReservation,
    degrade_until_fit,
)
from repro.core.context import ServingContext
from repro.metrics.collector import MetricsCollector, ScalingEvent
from repro.models.profiler import ModelProfile
from repro.partitioning.plan import PartitionPlan
from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.pipeline.router import ModelRouter
from repro.scaling.coordinator import ScalingCoordinator
from repro.scaling.warm_cache import HostParamCache
from repro.workloads.requests import Request

class ReplicaFactory:
    """Creates and tears down pipeline replicas for one serving system."""

    def __init__(
        self,
        ctx: ServingContext,
        *,
        routers: dict[str, ModelRouter],
        metrics: MetricsCollector,
        on_request_complete: Callable[[Request], None],
        warm_cache: HostParamCache | None = None,
        coordinator: ScalingCoordinator | None = None,
        interference: Callable | None = None,
        loading_speedup: float = 1.0,
        cache_on_release: bool = True,
        batcher_max_wait: float = 0.3,
        # Serverless container/runtime initialization paid on every scale-up
        # in addition to parameter loading; warm starts (§7) skip most of it.
        startup_overhead: float = 5.0,
        warm_startup_factor: float = 0.2,
        # PipeBoost-style pipelined loading: stage transfers are sequenced
        # front-to-back, the replica activates once stage 0 lands, and
        # later stages open their gates as their own transfers complete.
        pipelined_loading: bool = False,
    ):
        self.ctx = ctx
        self.routers = routers
        self.metrics = metrics
        self.on_request_complete = on_request_complete
        self.warm_cache = warm_cache
        self.coordinator = coordinator
        self.interference = interference
        self.loading_speedup = loading_speedup
        self.cache_on_release = cache_on_release
        self.batcher_max_wait = batcher_max_wait
        self.startup_overhead = startup_overhead
        self.warm_startup_factor = warm_startup_factor
        self.pipelined_loading = pipelined_loading
        # Per-system, so replica names depend only on this simulation.
        self._replica_ids = itertools.count()
        # QoS hooks (set by ServingSystem.enable_qos; None = historical
        # behaviour): class-priority batch formation inside new replicas,
        # and pending-deploy claims registered with the allocator so a
        # more urgent class can preempt a loading deploy.
        self.batch_priority_of: Callable[[Request], int] | None = None
        self.batch_aging: float | None = None
        self.deployed = 0
        self.released = 0
        # Every replica this factory ever created, in deployment order.
        # The registry is what lets shutdown, failure injection and the
        # invariant auditor reach replicas that never activated (still
        # LOADING) or already left their router (DRAINING) — both
        # invisible to the routers.  RELEASED entries are retained on
        # purpose: the auditor replays their full lifecycle at quiesce,
        # and a simulation's replica population is bounded.
        self.replicas: list[PipelineReplica] = []

    # ------------------------------------------------------------------
    def deploy(
        self,
        profile: ModelProfile,
        plan: PartitionPlan,
        *,
        batch_cap: int | None = None,
        scorer: Callable | None = None,
        wait_time: float = 0.0,
        event_kind: str = "scale_out",
    ) -> PipelineReplica:
        """Allocate, start loading, and return a LOADING replica.

        Raises :class:`AllocationError` when the fragmented cluster cannot
        host the plan (callers record the wait and retry).
        """
        sim = self.ctx.sim
        model = profile.spec.name
        batch = max(min(plan.max_batch, batch_cap or plan.max_batch), 1)
        if scorer is None and self.coordinator is not None:
            scorer = self.coordinator.scorer(model, sim.now)
        stage_scorers = self._coverage_scorers(profile, plan, scorer)
        # Memory-aware degradation: a fragmented cluster may not offer the
        # full KV reservation for the target batch — halve the batch (and
        # with it the KV pool) until the plan fits, rather than failing.
        def attempt(b: int) -> list[StageReservation]:
            mems = plan.memory_per_stage(b, profile.spec.kv_bytes_per_request)
            return self.ctx.allocator.allocate_stages(
                model, mems, scorer=scorer, stage_scorers=stage_scorers
            )

        batch, reservations = degrade_until_fit(batch, attempt)
        replica = PipelineReplica(
            sim,
            profile,
            plan,
            reservations,
            batcher_config=BatcherConfig(
                max_batch=batch, max_wait=self.batcher_max_wait
            ),
            on_request_complete=self.on_request_complete,
            on_active=self._on_replica_active,
            on_released=self._teardown,
            interference=self.interference,
            name=f"{model}/r{next(self._replica_ids)}",
        )
        if self.batch_priority_of is not None:
            # Class-priority batch formation from the first request on.
            replica.use_priority_batcher(
                self.batch_priority_of, aging=self.batch_aging
            )
        # Until activation this deploy is a *pending* resource claim: a
        # strictly more urgent class finding no feasible fragment may
        # cancel it (drain releases the reservations exactly once).
        replica.pending_claim = self.ctx.allocator.register_pending_deploy(
            model, reservations, replica.drain
        )
        if self.coordinator is not None:
            self.coordinator.record_scaling(
                model, [r.gpu for r in reservations], sim.now
            )
        self._start_loads(replica, profile, plan, reservations, wait_time, event_kind)
        self.deployed += 1
        self.replicas.append(replica)
        return replica

    def _coverage_scorers(
        self,
        profile: ModelProfile,
        plan: PartitionPlan,
        base: Callable | None,
    ) -> list[Callable] | None:
        """Per-stage scorers that prefer servers already holding a stage's
        byte range in the warm cache.

        The server-level affinity scorer cannot see *which* stage it is
        placing, so on a multi-server cluster a redeploy scatters stage
        ranges onto servers whose caches hold different bytes and every
        restart rides the cold path.  The coverage bonus (weighted by tier,
        host above SSD) pins each stage back onto its bytes whenever memory
        allows; with no cache configured the allocator sees no per-stage
        scorers and behaves exactly as before.
        """
        cache = self.warm_cache
        if cache is None:
            return None
        scorers: list[Callable] = []
        for sp in plan.stages:
            memo: dict[str, float] = {}

            def bonus(gpu, sp=sp, memo=memo) -> float:
                server = gpu.server
                value = memo.get(server.sid)
                if value is None:
                    # now=None: a placement *probe* is not a use — touching
                    # here would inflate GDSF frequency for every candidate
                    # server merely considered.
                    host, ssd = cache.coverage_by_tier(
                        server, profile, sp.start, sp.end, None
                    )
                    value = (2.0 * host + 1.0 * ssd) / max(sp.param_bytes, 1.0)
                    memo[server.sid] = value
                return value

            if base is None:
                scorers.append(bonus)
            else:
                scorers.append(lambda g, b=bonus: base(g) + b(g))
        return scorers

    def _on_replica_active(self, replica: PipelineReplica) -> None:
        """Loading finished: the deploy is no longer a preemptible claim."""
        self.ctx.allocator.claim_resolved(replica.pending_claim, activated=True)
        self.routers[replica.profile.spec.name].add(replica)

    def live_replicas(self) -> list[PipelineReplica]:
        """Replicas holding resources (anything not yet RELEASED)."""
        return [r for r in self.replicas if r.state is not ReplicaState.RELEASED]

    # ------------------------------------------------------------------
    def _start_loads(
        self,
        replica: PipelineReplica,
        profile: ModelProfile,
        plan: PartitionPlan,
        reservations: list[StageReservation],
        wait_time: float,
        event_kind: str,
    ) -> None:
        sim = self.ctx.sim
        cm = self.ctx.cost_model
        cache = self.warm_cache
        name = profile.spec.name
        pipelined = self.pipelined_loading
        # Pin the stage objects: after activation a refactor may swap
        # replica.stages, but completion callbacks refer to *these* stages.
        stages = list(replica.stages)
        state = {
            "warm_bytes": 0.0,
            "cold_bytes": 0.0,
            "stages_left": len(stages),
        }
        for stage in stages:
            # Parameters are not on the GPU until the transfers land; a
            # deploy cancelled mid-load must not leave phantom warm entries
            # at teardown.
            stage.params_resident = False
            if pipelined:
                stage.gate_load()

        def finish(warm: bool) -> None:
            if replica.state is not ReplicaState.LOADING:
                # Cancelled while loading (drained by scale-in, reclamation
                # or shutdown): the teardown path already released the
                # reservations — activating now would serve from freed GPUs.
                return
            replica.activate()
            if sim.recorder is not None:
                sim.recorder.record(
                    sim.now,
                    "replica_activated",
                    replica=replica.name,
                    model=name,
                    stages=plan.n_stages,
                    event=event_kind,
                    wait_time=wait_time,
                    init_time=sim.now - replica.created_at,
                    warm=warm,
                    warm_bytes=state["warm_bytes"],
                    cold_bytes=state["cold_bytes"],
                )
            self.metrics.on_event(
                ScalingEvent(
                    time=sim.now,
                    kind=event_kind,
                    detail=f"{replica.name} K={plan.n_stages}",
                    wait_time=wait_time,
                    init_time=sim.now - replica.created_at,
                    warm=warm,
                )
            )

        def startup_overhead() -> tuple[float, bool]:
            total = state["warm_bytes"] + state["cold_bytes"]
            warm = total > 0 and state["warm_bytes"] >= 0.5 * total
            return (
                self.startup_overhead
                * (self.warm_startup_factor if warm else 1.0),
                warm,
            )

        # Per stage: (link, nbytes, per-stream max rate, extra latency).
        stage_parts: list[list[tuple]] = []
        for stage_plan, reservation in zip(plan.stages, reservations):
            server = reservation.gpu.server
            param_bytes = stage_plan.param_bytes
            host_warm = ssd_warm = 0.0
            if cache is not None:
                host_warm, ssd_warm = cache.coverage_by_tier(
                    server, profile, stage_plan.start, stage_plan.end, sim.now
                )
            cold = max(param_bytes - host_warm - ssd_warm, 0.0)
            state["warm_bytes"] += host_warm + ssd_warm
            state["cold_bytes"] += cold
            parts: list[tuple] = []
            # The fixed warm-load overhead is a latency before the transfer
            # starts, not a per-byte rate derate: folding it into the rate
            # would scale the fixed part under link contention.  Bytes then
            # move at the full tier bandwidth (fair-share contention on top).
            if host_warm > 0:
                parts.append(
                    (server.pcie, host_warm, None, cm.config.warm_load_overhead)
                )
            if ssd_warm > 0:
                parts.append(
                    (server.ssd, ssd_warm, None, cm.config.warm_load_overhead)
                )
            if cold > 0:
                # Per-stream rate reproduces the calibrated load-time curve
                # when uncontended; the shared link adds contention on top.
                duration = cm.cold_load_time(cold) / self.loading_speedup
                parts.append((self.ctx.cluster.storage, cold, cold / duration, 0.0))
            stage_parts.append(parts)

        def stage_done(idx: int) -> None:
            stage = stages[idx]
            stage.params_resident = True
            if cache is not None:
                # Cache-through (§7) *on completion*: the host-side copy
                # exists only once the bytes actually streamed through, so
                # a cancelled deploy never fabricates warm coverage.
                sp = plan.stages[idx]
                cache.put(
                    reservations[idx].gpu.server,
                    name,
                    sp.start,
                    sp.end,
                    sp.param_bytes,
                    sim.now,
                    load_cost=cm.cold_load_time(sp.param_bytes),
                )
            if pipelined:
                if idx == 0:
                    overhead, warm = startup_overhead()

                    def open_first() -> None:
                        stage.mark_loaded()
                        finish(warm)

                    sim.schedule(overhead, open_first)
                else:
                    stage.mark_loaded()
                if idx + 1 < len(stages):
                    start_stage(idx + 1)
            else:
                state["stages_left"] -= 1
                if state["stages_left"] == 0:
                    overhead, warm = startup_overhead()
                    sim.schedule(overhead, finish, warm)

        def start_stage(idx: int) -> None:
            parts = stage_parts[idx]
            if not parts:
                # Nothing to move (e.g. zero-parameter test stages); keep
                # completion asynchronous like a real transfer would be.
                sim.schedule(0.0, stage_done, idx)
                return
            pending = {"n": len(parts)}

            def part_done() -> None:
                pending["n"] -= 1
                if pending["n"] == 0:
                    stage_done(idx)

            for link, nbytes, rate, delay in parts:
                if delay > 0:
                    sim.schedule(
                        delay,
                        lambda link=link, nbytes=nbytes, rate=rate: link.transfer(
                            nbytes, part_done, max_rate=rate
                        ),
                    )
                else:
                    link.transfer(nbytes, part_done, max_rate=rate)

        if pipelined:
            # Sequenced front-to-back: stage 0 takes the links uncontended
            # (by this deploy) and the replica starts serving once it lands;
            # prefill then chases the load front down the pipeline.
            start_stage(0)
        else:
            for idx in range(len(stages)):
                start_stage(idx)

    # ------------------------------------------------------------------
    def _teardown(self, replica: PipelineReplica) -> None:
        """Release GPU reservations; keep parameters warm in host memory."""
        sim = self.ctx.sim
        model = replica.profile.spec.name
        # A deploy cancelled before activating (reclamation, shutdown or
        # preemption) stops being a pending claim here; preempted claims
        # already resolved and keep their "preempted" state.
        self.ctx.allocator.claim_resolved(replica.pending_claim, activated=False)
        self.routers[model].remove(replica)
        for stage in replica.stages:
            reservation = stage.reservation
            if reservation.released:
                continue
            if (
                self.cache_on_release
                and self.warm_cache is not None
                and stage.params_resident
                # A cancelled deploy's stages whose transfers never landed
                # hold no parameters — caching them would fabricate warm
                # coverage for bytes that never moved.
            ):
                self.warm_cache.put(
                    reservation.gpu.server,
                    model,
                    stage.plan.start,
                    stage.plan.end,
                    stage.plan.param_bytes,
                    sim.now,
                    load_cost=self.ctx.cost_model.cold_load_time(
                        stage.plan.param_bytes
                    ),
                )
            self.ctx.allocator.release(reservation)
        self.released += 1
        if sim.recorder is not None:
            sim.recorder.record(
                sim.now,
                "teardown",
                replica=replica.name,
                model=model,
            )
        self.metrics.on_event(
            ScalingEvent(time=sim.now, kind="scale_in", detail=replica.name)
        )

    def release(self, replica: PipelineReplica) -> None:
        """Gracefully drain a replica (release happens when it empties)."""
        self.routers[replica.profile.spec.name].remove(replica)
        replica.drain()
