"""Inflight refactoring executor (Fig. 6, §6.3).

Transition between ladder rungs without pausing service:

1. **Plan** — map every target stage onto the fine-stage lattice
   (:func:`reuse_plan`, the one retention rule): a stage whose leading
   fine range already resides on a GPU *reuses* it (splits load nothing
   on the retained GPU; merges load only the complement).
2. **Prepare** — reserve target memory, load missing parameters from the
   best source (peer GPU via RDMA / sendfile, host-memory warm cache, or
   cold storage), and migrate KV shards asynchronously while the old
   chain keeps serving.
3. **Switch** — a metadata gateway update plus a delta KV sync pause of a
   few milliseconds; new batches run on the new chain, in-flight batches
   finish on the old one, old reservations release as their stages retire.

The Eq. 10 consistency protocol is exercised for a representative request
on every migration (snapshot -> decode continues -> delta sync) and the
invariant is asserted.

Both transition modes run through one preparation path and differ only in
how a retained stage keeps its GPU:

* **Chain** (the default) — the retained stage gets a co-resident copy on
  its old GPU (falling back to a fresh GPU when the device cannot hold
  both), so the replica briefly holds two full chains.
* **In-place** — following PipeLive, the retained stage's *live*
  reservation grows by the parameter/KV delta only, and is trimmed back
  to the target footprint when the old chain retires; unchanged stages
  serve throughout.

Elastic mode (``elastic``, inert until armed) lets a cost model pick the
mode per transition from the delta bytes, the tenant's share headroom and
disturbance risk, and registers every preparation as a preemptible
``PendingClaim`` over the reservations it owns, so QoS preempt-or-wait can
cancel a lower-class tenant's in-flight preparation; the executor rolls
back to the still-serving old chain through the normal exactly-once
release path.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.allocator import (
    AllocationError,
    PendingClaim,
    StageReservation,
)
from repro.core.context import ServingContext
from repro.metrics.collector import MetricsCollector, ScalingEvent
from repro.models.profiler import ModelProfile
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.kvcache import KVCacheState, delta_sync, snapshot_transfer
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.pipeline.sizing import degrade_until_fit, full_batch
from repro.scaling.warm_cache import HostParamCache

if TYPE_CHECKING:
    from repro.core.deployment import ReplicaFactory


@dataclass
class Transition:
    """Everything needed to execute one granularity transition.

    ``reservations`` is the target chain, one per stage.  ``owned`` are
    the reservations the transition created — the whole chain for a
    prepared-chain transition, the stages that could not survive for an
    in-place one.  ``grown`` lists the live reservations an in-place
    transition resized, as (reservation, bytes before, target bytes): the
    same ``StageReservation`` serves both chains, grown by the delta for
    the co-residency window and trimmed to the target once the old chain
    retires.  It is empty for a chain transition.
    """

    target_stages: int
    reservations: list[StageReservation]
    owned: list[StageReservation]
    grown: list[tuple[StageReservation, float, float]]
    load_duration: float
    kv_duration: float
    kv_bytes: float
    # Bytes the preparation added to the cluster (owned + growth).
    delta_bytes: float
    reused_gpus: int
    # Batch the target chain was sized for; under memory degradation this
    # is below the rung's max_batch and becomes the post-switch batch cap.
    batch: int
    # Per-stage load completion times (pipelined chain transitions): the
    # switch happens once stage 0 is ready; later stages open their gates
    # as they land.
    stage_load_times: tuple[float, ...] = ()
    started_at: float = 0.0
    # Prepared-chain claim (elastic mode) and a unique token the auditor
    # uses to assert switched/aborted disjointness.
    claim: PendingClaim | None = None
    token: int = 0

    @property
    def inplace(self) -> bool:
        return bool(self.grown)

    @property
    def fresh_gpus(self) -> int:
        return len(self.reservations) - self.reused_gpus

    @property
    def duration(self) -> float:
        return max(self.load_duration, self.kv_duration)


def reuse_plan(
    old_groups: Sequence[tuple[int, int]], new_groups: Sequence[tuple[int, int]]
) -> list[tuple[int, bool]]:
    """The retention rule over the fine-stage lattice (§6.3, Fig. 6).

    Groups are ``(first_fine, last_fine_exclusive)`` spans.  For each new
    stage: the old stage that hosts its leading fine unit today, and
    whether the new stage starts at that owner's head — the only case in
    which the owner's device already holds the new stage's leading range
    and may keep it.  Everything else is loaded or migrated.
    """
    fine_owner: dict[int, int] = {}
    for j, (lo, hi) in enumerate(old_groups):
        for f in range(lo, hi):
            fine_owner[f] = j
    return [
        (fine_owner[lo], old_groups[fine_owner[lo]][0] == lo)
        for lo, _hi in new_groups
    ]


class RefactoringExecutor:
    """Performs live split/merge transitions for one model's replicas."""

    def __init__(
        self,
        ctx: ServingContext,
        profile: ModelProfile,
        ladder: GranularityLadder,
        metrics: MetricsCollector,
        *,
        warm_cache: HostParamCache | None = None,
        decision_latency: float = 0.002,
        switch_pause: float = 0.001,
        # The ReplicaFactory that deploys this model's replicas: it owns
        # the batch cap new chains are sized at (none: uncapped).
        factory: ReplicaFactory | None = None,
        # Pipelined chain transitions: switch to the new chain as soon as
        # its first stage has loaded, gating later stages until their own
        # loads complete (mirrors ReplicaFactory's pipelined deploys).
        pipelined_loading: bool = False,
    ):
        self.ctx = ctx
        self.profile = profile
        self.ladder = ladder
        self.metrics = metrics
        self.warm_cache = warm_cache
        self.decision_latency = decision_latency
        self.switch_pause = switch_pause
        self.factory = factory
        self.pipelined_loading = pipelined_loading
        self.transitions_started = 0
        self.transitions_completed = 0
        self.transitions_aborted = 0
        self.consistency_checks = 0
        self._inflight: set[str] = set()
        # In-flight transitions by replica name; kept so a platform
        # reclamation can abort them (and free their prepared
        # reservations) the moment a victim GPU is cordoned.
        self._transitions: dict[str, tuple[PipelineReplica, Transition, object]] = {}
        # Elastic mode (inert until armed): the cost model may pick an
        # in-place transition, and every preparation registers as a
        # preemptible prepared-chain claim.
        self.elastic = False
        self.transitions_inplace = 0
        self.transitions_chain = 0
        self._token_counter = itertools.count(1)
        # Auditor evidence: a cancelled preparation must never switch in.
        self.switched_tokens: set[int] = set()
        self.aborted_tokens: set[int] = set()
        # (replica, start, end) per completed in-place transition — the
        # auditor asserts the replica never left ACTIVE inside the span.
        self.inplace_spans: list[tuple[PipelineReplica, float, float]] = []
        # Shared reservations awaiting their post-retirement trim.
        self._shrink_to: dict[str, float] = {}

    # ------------------------------------------------------------------
    @property
    def batch_cap(self) -> int | None:
        """The batch cap new chains are sized at, owned by the factory."""
        return None if self.factory is None else self.factory.batch_cap

    def refactoring(self, replica: PipelineReplica) -> bool:
        return replica.name in self._inflight

    def refactor(self, replica: PipelineReplica, target_stages: int) -> bool:
        """Begin an inflight transition; returns False if not possible now."""
        if replica.state is not ReplicaState.ACTIVE:
            return False
        if replica.name in self._inflight:
            return False
        if target_stages == replica.plan.n_stages:
            return False
        plan = None
        for inplace in self._mode_attempts(replica, target_stages):
            try:
                plan = self._prepare(replica, target_stages, inplace)
                break
            except AllocationError:
                continue
        if plan is None:
            return False
        plan.token = next(self._token_counter)
        self._inflight.add(replica.name)
        self.transitions_started += 1
        # Decision latency, then the asynchronous preparation window (old
        # chain keeps serving), then the switch pause.
        total = self.decision_latency + plan.duration + self.switch_pause
        event = self.ctx.sim.schedule(total, self._switch, replica, plan)
        self._transitions[replica.name] = (replica, plan, event)
        self._register_claim(replica, plan)
        sim = self.ctx.sim
        if sim.tracer is not None:
            sim.tracer.refactor_begin(replica.name, sim.now)
        if sim.recorder is not None:
            sim.recorder.record(
                sim.now,
                "refactor_started",
                replica=replica.name,
                model=self.profile.spec.name,
                target_stages=plan.target_stages,
                inplace=plan.inplace,
                expected_latency=total,
            )
        return True

    def _mode_attempts(
        self, replica: PipelineReplica, target_stages: int
    ) -> tuple[bool, ...]:
        """Whether to prepare in place, preferred mode first; in elastic
        mode the other mode is the fallback when preparation cannot place."""
        if not self.elastic:
            return (False,)
        inplace = self._prefer_inplace(replica, target_stages)
        return (inplace, not inplace)

    def _prefer_inplace(self, replica: PipelineReplica, target_stages: int) -> bool:
        """Cost-model choice between in-place and prepared-chain.

        Inputs: the transient byte cost of each mode (in-place pays only
        the delta on surviving devices; chain pays a full second copy),
        the tenant's share headroom (a chain that cannot fit under the
        cap forces in-place), and disturbance risk (in-place mutates the
        serving chain's reservations, so it must buy a real byte saving
        when plenty of KV is in flight).
        """
        inplace_bytes, chain_bytes = self._estimate_modes(replica, target_stages)
        headroom = self.ctx.allocator.share_headroom(self.profile.spec.name)
        if headroom < chain_bytes:
            return True
        total_params = max(self.profile.graph.param_bytes(0, None), 1.0)
        risk = min(replica.kv_bytes_in_flight() / total_params, 1.0)
        return inplace_bytes * (1.0 + risk) < chain_bytes

    def _estimate_modes(
        self, replica: PipelineReplica, target_stages: int
    ) -> tuple[float, float]:
        """(in-place transient bytes, chain transient bytes) for the
        full-batch target — estimated without reserving anything.

        The new first stage always leads on the old first stage's GPU, so
        some stage always survives and in-place never degenerates into a
        full second chain.
        """
        old_rung = self.ladder.rung(replica.plan.n_stages)
        new_rung = self.ladder.rung(target_stages)
        new_plan = new_rung.plan
        mems = new_plan.memory_per_stage(
            full_batch(new_plan, self.batch_cap),
            self.profile.spec.kv_bytes_per_request,
        )
        inplace_bytes = 0.0
        for k, (owner, leads) in enumerate(
            reuse_plan(old_rung.groups, new_rung.groups)
        ):
            resident = (
                self._resident_bytes(new_plan.stages[k], replica.stages[owner].plan)
                if leads
                else 0.0
            )
            inplace_bytes += max(mems[k] - resident, 0.0)
        return inplace_bytes, float(sum(mems))

    def _resident_bytes(self, stage_plan, owner_plan) -> float:
        """Parameter bytes of ``stage_plan`` already resident on the device
        of the old stage ``owner_plan``."""
        lo = max(stage_plan.start, owner_plan.start)
        hi = min(stage_plan.end, owner_plan.end)
        return self.profile.graph.param_bytes(lo, hi) if lo < hi else 0.0

    def _register_claim(self, replica: PipelineReplica, plan: Transition) -> None:
        """Register the preparation as a preemptible prepared-chain claim.

        Only the bytes a preemption could actually free are claimed: the
        reservations the transition owns (grown reservations back the
        serving chain and are never preemptible).
        """
        if not self.elastic or not plan.owned:
            return
        plan.claim = self.ctx.allocator.register_pending_deploy(
            self.profile.spec.name,
            plan.owned,
            cancel=lambda n=replica.name, t=plan.token: self._abort_transition(
                n, "(preempted)", token=t
            ),
            kind="prepared-chain",
        )

    # ------------------------------------------------------------------
    def abort_on_cordon(self, gpu) -> int:
        """Abort every in-flight transition with a prepared stage on ``gpu``.

        A prepared reservation is not a stage of any replica, so a
        reclamation drain cannot reach it; without this hook the memory
        would sit on the reclaimed GPU until the (cancelled) switch fired.
        Serverless platforms notify instances at reclamation time, so the
        executor releases the prepared chain immediately — inside the
        downtime window — and the transition simply never happens.
        Returns the number of transitions aborted.
        """
        aborted = 0
        for name, (_replica, plan, _event) in list(self._transitions.items()):
            if not any(r.gpu is gpu for r in plan.reservations):
                continue
            if self._abort_transition(name, f"(reclaimed {gpu.gid})"):
                aborted += 1
        return aborted

    def _abort_transition(
        self, name: str, why: str, *, token: int | None = None
    ) -> bool:
        """Cancel an in-flight transition and roll back its preparation.

        Shared by reclamation (cordon) and prepared-claim preemption;
        ``token`` guards a stale preemption cancel against a newer
        transition that reused the replica name.
        """
        entry = self._transitions.get(name)
        if entry is None:
            return False
        replica, plan, event = entry
        if token is not None and plan.token != token:
            return False
        del self._transitions[name]
        event.cancel()
        # Resolving is a no-op for a preempted claim (its state must stay
        # "preempted" for the auditor) and for claim=None.
        self.ctx.allocator.claim_resolved(plan.claim, activated=False)
        self._rollback(plan.owned, plan.grown)
        self._inflight.discard(name)
        self.transitions_aborted += 1
        if plan.token:
            self.aborted_tokens.add(plan.token)
        sim = self.ctx.sim
        if sim.tracer is not None:
            sim.tracer.refactor_end(name, sim.now)
        if sim.recorder is not None:
            sim.recorder.record(
                sim.now,
                "refactor_aborted",
                replica=name,
                model=self.profile.spec.name,
                target_stages=plan.target_stages,
                why=why,
            )
        self.metrics.on_event(
            ScalingEvent(
                time=self.ctx.sim.now,
                kind="refactor_aborted",
                detail=f"{replica.name} -> {plan.target_stages} stages {why}",
            )
        )
        return True

    def _rollback(
        self,
        owned: list[StageReservation],
        grown: list[tuple[StageReservation, float, float]],
    ) -> None:
        """Return a preparation's resources; the old chain keeps serving."""
        for reservation in owned:
            if not reservation.released:
                self.ctx.allocator.release(reservation)
        for reservation, old_bytes, _final in grown:
            if not reservation.released and reservation.nbytes > old_bytes:
                self.ctx.allocator.resize(reservation, old_bytes)

    # ------------------------------------------------------------------
    def _prepare(
        self, replica: PipelineReplica, target_stages: int, inplace: bool
    ) -> Transition:
        """Plan and reserve a transition to ``target_stages``.

        A chain transition stands up a full second chain, each retained
        stage as a co-resident copy on its old GPU.  An in-place one
        (PipeLive-style) grows each retained stage's live reservation by
        the delta only.  Either way the old chain serves untouched for the
        whole preparation window.
        """
        old_rung = self.ladder.rung(replica.plan.n_stages)
        new_rung = self.ladder.rung(target_stages)
        # Memory-aware degradation (same policy as ReplicaFactory.deploy):
        # when the fragmented cluster cannot host the target rung at the
        # full batch's KV reservation, halve the batch until it fits
        # rather than abandoning the transition outright.
        batch, (reservations, owned, grown, stage_times, kv_moving, reused) = (
            degrade_until_fit(
                full_batch(new_rung.plan, self.batch_cap),
                lambda b: self._reserve(replica, old_rung, new_rung, b, inplace),
            )
        )
        if inplace and not grown:
            # Nothing survived in place — roll back and let the caller
            # fall through to the chain path, which handles this shape.
            self._rollback(owned, grown)
            raise AllocationError(
                f"in-place transition for {replica.name} reuses no stage"
            )
        # Pipelined chain transitions swap once the first stage is ready
        # (later stages stay gated until their own loads land); otherwise
        # the switch waits for the slowest stage.
        pipelined = self.pipelined_loading and not inplace and bool(stage_times)
        load_duration = (
            stage_times[0] if pipelined else max(stage_times, default=0.0)
        )
        kv_plan = self.ctx.data_mover.plan(
            kv_moving, same_server=False, src_rdma=True, dst_rdma=True
        )
        self._exercise_consistency_protocol(replica)
        return Transition(
            target_stages=target_stages,
            reservations=reservations,
            owned=owned,
            grown=grown,
            load_duration=load_duration,
            kv_duration=kv_plan.duration if kv_moving > 0 else 0.0,
            kv_bytes=kv_moving,
            delta_bytes=sum(res.nbytes - old for res, old, _final in grown)
            + sum(res.nbytes for res in owned),
            reused_gpus=reused,
            batch=batch,
            stage_load_times=tuple(stage_times) if pipelined else (),
            started_at=self.ctx.sim.now,
        )

    def _reserve(
        self,
        replica: PipelineReplica,
        old_rung,
        new_rung,
        batch: int,
        inplace: bool,
    ) -> tuple[
        list[StageReservation],
        list[StageReservation],
        list[tuple[StageReservation, float, float]],
        list[float],
        float,
        int,
    ]:
        """Reserve the target chain at ``batch``; all-or-nothing.

        Returns (target reservations, owned, grown, per-stage best-source
        load times, KV bytes moving, stages retained on their old GPU).
        """
        model = self.profile.spec.name
        new_plan = new_rung.plan
        mems = new_plan.memory_per_stage(
            batch, self.profile.spec.kv_bytes_per_request
        )
        reservations: list[StageReservation] = []
        owned: list[StageReservation] = []
        grown: list[tuple[StageReservation, float, float]] = []
        claimed: set[str] = set()
        stage_times: list[float] = []
        kv_bytes_moving = 0.0
        reused = 0
        try:
            for k, ((lo, hi), (owner, leads)) in enumerate(
                zip(new_rung.groups, reuse_plan(old_rung.groups, new_rung.groups))
            ):
                stage_plan = new_plan.stages[k]
                owner_stage = replica.stages[owner]
                gpu = owner_stage.gpu
                reservation = None
                resident = 0.0
                # Reuse: the new stage leads on a GPU that already holds its
                # leading fine range, and no other new stage claimed it.
                if leads and gpu.gid not in claimed:
                    resident = self._resident_bytes(stage_plan, owner_stage.plan)
                    if inplace:
                        reservation = self._grow(
                            owner_stage.reservation, mems[k], resident, grown
                        )
                    else:
                        reservation = self._co_reside(gpu, mems[k], owned)
                kept = reservation is not None
                if not kept:
                    resident = 0.0
                    exclude = [
                        r.gpu for r in reservations
                    ] + [s.gpu for s in replica.stages]
                    got = self.ctx.allocator.allocate_stages(
                        model, [mems[k]], exclude=exclude
                    )
                    reservation = got[0]
                    owned.append(reservation)
                else:
                    claimed.add(gpu.gid)
                    reused += 1
                reservations.append(reservation)
                stage_times.append(
                    self._stage_load_time(
                        stage_plan, reservation, owner_stage, resident
                    )
                )
                # Fine ranges that change GPUs carry their KV shards along.
                stay = min(hi, old_rung.groups[owner][1]) - lo if kept else 0
                kv_bytes_moving += (
                    replica.kv_bytes_in_flight()
                    * self.profile.kv_fraction(stage_plan.profile)
                    * ((hi - lo - stay) / (hi - lo))
                )
        except AllocationError:
            self._rollback(owned, grown)
            raise
        return reservations, owned, grown, stage_times, kv_bytes_moving, reused

    def _co_reside(
        self, gpu, nbytes: float, owned: list[StageReservation]
    ) -> StageReservation | None:
        """Chain mode's reuse: a full copy of the new stage beside the old
        one on its GPU, or None when the device cannot hold both."""
        try:
            reservation = self.ctx.allocator.reserve_on(
                self.profile.spec.name, gpu, nbytes, allow_same_model=True
            )
        except AllocationError:
            return None
        owned.append(reservation)
        return reservation

    def _grow(
        self,
        live: StageReservation,
        nbytes: float,
        resident: float,
        grown: list[tuple[StageReservation, float, float]],
    ) -> StageReservation | None:
        """In-place reuse: grow the live reservation by the target footprint
        minus what is already resident (old params + old KV stay until the
        chain retires), or None when it cannot grow.

        A reservation still awaiting the previous transition's trim is
        never grown: that trim fires when the previous old chain retires
        and would cut this growth away with it."""
        if live.released or live.res_id in self._shrink_to:
            return None
        old_bytes = live.nbytes
        try:
            self.ctx.allocator.resize(
                live, old_bytes + max(nbytes - resident, 0.0)
            )
        except (AllocationError, ValueError):
            # Share cap says no (AllocationError) or the device itself
            # cannot hold the delta (the GPU's over-commit ValueError).
            return None
        grown.append((live, old_bytes, nbytes))
        return live

    def _stage_load_time(
        self,
        stage_plan,
        reservation: StageReservation,
        owner_stage,
        resident: float,
    ) -> float:
        """Best-source load time for one target stage's missing parameters."""
        cm = self.ctx.cost_model
        mover = self.ctx.data_mover
        missing = max(stage_plan.param_bytes - resident, 0.0)
        if missing <= 0:
            return 0.0
        options = []
        # Peer GPUs of the same replica hold the missing ranges today.
        src_server = owner_stage.gpu.server
        dst_server = reservation.gpu.server
        peer = mover.plan(
            missing,
            same_server=src_server.sid == dst_server.sid,
            src_rdma=src_server.rdma,
            dst_rdma=dst_server.rdma,
        )
        options.append(peer.duration)
        if self.warm_cache is not None:
            host_warm, ssd_warm = self.warm_cache.coverage_by_tier(
                dst_server, self.profile, stage_plan.start, stage_plan.end
            )
            if host_warm >= missing:
                options.append(cm.warm_load_time(missing))
            elif host_warm + ssd_warm >= missing:
                # Partially demoted to the SSD tier: price the whole load
                # at NVMe bandwidth (conservative — host-resident bytes
                # would move faster).
                options.append(
                    cm.config.warm_load_overhead
                    + missing / dst_server.ssd_bandwidth
                )
        options.append(cm.cold_load_time(missing))
        return min(options)

    def _exercise_consistency_protocol(self, replica: PipelineReplica) -> None:
        """Run the Eq. 10 snapshot/delta protocol for a representative shard."""
        source = KVCacheState(request_id=0, bytes_per_token=1.0)
        source.append_tokens(int(self.profile.spec.avg_context_tokens))
        target = snapshot_transfer(source)
        source.append_tokens(3)  # decode continues during the async window
        delta_sync(source, target)
        if not target.is_consistent():
            raise RuntimeError("Eq. 10 consistency invariant violated")
        self.consistency_checks += 1

    # ------------------------------------------------------------------
    def _retire_stage(self, stage) -> None:
        """Release a retired old-chain stage's memory — exactly once.

        A reservation shared with the new chain (in-place transition) is
        not released: it shrinks to the new stage's target footprint, the
        old params/KV it carried through the co-residency window going
        away with the resize.
        """
        reservation = stage.reservation
        final = self._shrink_to.pop(reservation.res_id, None)
        if reservation.released:
            return
        if final is not None:
            if reservation.nbytes > final:
                self.ctx.allocator.resize(reservation, final)
            return
        if self.warm_cache is not None:
            self.warm_cache.put(
                reservation.gpu.server,
                self.profile.spec.name,
                stage.plan.start,
                stage.plan.end,
                stage.plan.param_bytes,
                self.ctx.sim.now,
                load_cost=self.ctx.cost_model.cold_load_time(
                    stage.plan.param_bytes
                ),
            )
        self.ctx.allocator.release(reservation)

    def _switch(self, replica: PipelineReplica, plan: Transition) -> None:
        sim = self.ctx.sim
        self._inflight.discard(replica.name)
        self._transitions.pop(replica.name, None)
        if sim.tracer is not None:
            sim.tracer.refactor_end(replica.name, sim.now)
        if replica.state in (ReplicaState.DRAINING, ReplicaState.RELEASED) or any(
            r.gpu.cordoned for r in plan.reservations
        ):
            # Two races resolve the same way.  Refactor-vs-drain: the
            # replica started dying during the preparation window, so a
            # fresh chain would sit on a replica that stops serving.
            # Refactor-vs-reclamation: the platform reclaimed (cordoned) a
            # GPU holding a prepared stage, so swapping would serve from a
            # reclaimed device for its whole downtime.  Either way, give
            # the prepared resources straight back instead of swapping.
            self.ctx.allocator.claim_resolved(plan.claim, activated=False)
            self._rollback(plan.owned, plan.grown)
            return
        self.ctx.allocator.claim_resolved(plan.claim, activated=True)
        old_n = replica.plan.n_stages
        new_plan = self.ladder.plan(plan.target_stages)
        for reservation, _old_bytes, final in plan.grown:
            self._shrink_to[reservation.res_id] = final
        replica.on_stage_retired = self._retire_stage
        # The prepared chain only holds KV for ``plan.batch`` requests; a
        # degraded transition therefore also caps the batcher until the
        # next transition re-sizes it.
        swap = replica.swap_stages_inplace if plan.inplace else replica.swap_stages
        swap(new_plan, plan.reservations, batch_cap=plan.batch)
        if plan.stage_load_times:
            # Pipelined chain transition: the swap happened once stage 0
            # was ready; stages whose loads outlast the preparation window
            # stay gated (jobs queue there) and open exactly when their
            # load lands.
            elapsed = plan.duration + self.switch_pause
            for stage, load_time in zip(replica.stages, plan.stage_load_times):
                extra = load_time - elapsed
                if extra > 1e-9:
                    stage.gate_load()
                    sim.schedule(extra, stage.mark_loaded)
        self.transitions_completed += 1
        if plan.token:
            self.switched_tokens.add(plan.token)
        if plan.inplace:
            self.transitions_inplace += 1
            self.inplace_spans.append((replica, plan.started_at, sim.now))
            detail = (
                f"{replica.name} {old_n}->{plan.target_stages} in-place "
                f"(resize {plan.reused_gpus}, fresh {plan.fresh_gpus}, "
                f"delta {plan.delta_bytes / 2**20:.1f} MiB, "
                f"kv {plan.kv_bytes / 2**20:.1f} MiB)"
            )
        else:
            self.transitions_chain += 1
            detail = (
                f"{replica.name} {old_n}->{plan.target_stages} "
                f"(reuse {plan.reused_gpus}, fresh {plan.fresh_gpus}, "
                f"kv {plan.kv_bytes / 2**20:.1f} MiB)"
            )
        if sim.recorder is not None:
            sim.recorder.record(
                sim.now,
                "refactor_switched",
                replica=replica.name,
                model=self.profile.spec.name,
                stages=f"{old_n}->{plan.target_stages}",
                inplace=plan.inplace,
                reused_gpus=plan.reused_gpus,
                fresh_gpus=plan.fresh_gpus,
                kv_bytes=plan.kv_bytes,
            )
        self.metrics.on_event(
            ScalingEvent(
                time=sim.now,
                kind="refactor",
                detail=detail,
                # Full client-visible transition latency: the decision,
                # the asynchronous preparation window, and the switch
                # pause — matching what ``refactor`` actually scheduled.
                init_time=self.decision_latency + plan.duration + self.switch_pause,
                warm=plan.fresh_gpus == 0,
            )
        )
