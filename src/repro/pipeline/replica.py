"""A pipeline replica: one chain of stages serving one model.

Lifecycle::

    LOADING --(all stages loaded)--> ACTIVE --(drain request)--> DRAINING
        --(in-flight work finishes)--> RELEASED

Inflight refactoring swaps the stage chain *while ACTIVE*: new batches run
on the new chain immediately, jobs already in the pipeline finish on the
old chain (each job carries references to its stages), and old stages
retire when their last job completes — no request is dropped or paused,
which is the paper's central mechanism (§6, Fig. 6).
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable

from repro.cluster.allocator import StageReservation
from repro.models.costs import HOP_OVERHEAD, PEAK_FLOPS, PREFILL_OVERHEAD
from repro.models.profiler import ModelProfile
from repro.partitioning.batch_scaling import BASE_BATCH, activation_bytes
from repro.partitioning.plan import PartitionPlan
from repro.pipeline.batching import BatcherConfig, DynamicBatcher
from repro.pipeline.sizing import full_batch
from repro.pipeline.stage import BatchJob, StageRuntime
from repro.qos.queueing import PriorityPendingQueue
from repro.simulation.engine import Simulator
from repro.transfer.links import NIC_BANDWIDTH
from repro.workloads.requests import Request

_job_ids = itertools.count()


class ReplicaState(enum.Enum):
    LOADING = "loading"
    ACTIVE = "active"
    DRAINING = "draining"
    RELEASED = "released"


# Legal state-machine moves.  LOADING -> DRAINING is the cancellation path
# (a replica reclaimed or shut down before its parameters finished
# loading); everything else is the normal lifecycle.
ALLOWED_TRANSITIONS: dict[ReplicaState, tuple[ReplicaState, ...]] = {
    ReplicaState.LOADING: (ReplicaState.ACTIVE, ReplicaState.DRAINING),
    ReplicaState.ACTIVE: (ReplicaState.DRAINING,),
    ReplicaState.DRAINING: (ReplicaState.RELEASED,),
    ReplicaState.RELEASED: (),
}


class PipelineReplica:
    """Executes batches over a chain of :class:`StageRuntime` stages."""

    def __init__(
        self,
        sim: Simulator,
        profile: ModelProfile,
        plan: PartitionPlan,
        reservations: list[StageReservation],
        *,
        batcher_config: BatcherConfig | None = None,
        on_request_complete: Callable[[Request], None],
        on_active: Callable[["PipelineReplica"], None] | None = None,
        on_released: Callable[["PipelineReplica"], None] | None = None,
        interference: Callable | None = None,
        name: str | None = None,
    ):
        if len(reservations) != plan.n_stages:
            raise ValueError(
                f"{plan.n_stages} stages need {plan.n_stages} reservations, "
                f"got {len(reservations)}"
            )
        self.sim = sim
        self.profile = profile
        self._set_plan(plan)
        self.name = name or f"replica-{next(_job_ids)}"
        self.state = ReplicaState.LOADING
        # Lifecycle audit trail: every state change is recorded, and any
        # accounting irregularity lands in ``anomalies`` instead of being
        # silently absorbed (the invariant auditor asserts both).
        self.state_history: list[tuple[float, ReplicaState]] = [
            (sim.now, ReplicaState.LOADING)
        ]
        self.anomalies: list[str] = []
        self.on_request_complete = on_request_complete
        self.on_active = on_active
        self.on_released = on_released
        self.interference = interference
        self.stages = self._build_stages(plan, reservations)
        cfg = batcher_config or BatcherConfig(max_batch=plan.max_batch)
        self.batcher = DynamicBatcher(
            sim, cfg, self._can_dispatch, self._dispatch
        )
        self.created_at = sim.now
        self.activated_at: float | None = None
        # Set by the replica factory while this deploy is LOADING under
        # QoS arbitration (a preemptible allocator claim); None otherwise.
        self.pending_claim = None
        self.inflight_jobs = 0
        self.inflight_requests = 0
        # The router that added this replica; while ACTIVE, every change
        # to ``queue_length`` or ``len(batcher)`` is reported to it.
        self.router = None
        self.accepted_requests = 0
        self.completed_requests = 0
        self._retired_stages: list[StageRuntime] = []
        # Jobs outstanding per stage chain (keyed by chain identity), so a
        # superseded chain's GPUs release only after its last job finishes.
        self._chain_jobs: dict[int, int] = {}
        self._chains: dict[int, list[StageRuntime]] = {}
        self._retired_chain_keys: set[int] = set()
        self.on_stage_retired: Callable[[StageRuntime], None] | None = None
        self.reconfig_count = 0
        self.inplace_swaps = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _set_plan(self, plan: PartitionPlan) -> None:
        """Install a plan and drop the per-batch-size stage costs memoised
        for the previous one (see :meth:`_batch_costs`)."""
        self.plan = plan
        self._costs_by_batch: dict[int, tuple] = {}

    def _batch_costs(self, batch: int) -> tuple:
        """The batch-size-only factors of :meth:`_make_job`, built once per
        plan and batch size: the Eq. 3 activation factor and, per stage,
        ``(flops_per_token, decode_iter_time, act_base, decode_hop)``.
        Building through the cost model runs its argument checks here."""
        cm = self.profile.cost_model
        last = self.plan.n_stages - 1
        per_stage = []
        for k, s in enumerate(self.plan.stages):
            act_base = BASE_BATCH * s.profile.boundary_act_bytes_per_token
            hop = cm.hop_time(activation_bytes(act_base, batch)) if k < last else 0.0
            iter_time = cm.decode_iter_time(s.param_bytes, batch)
            per_stage.append((s.profile.flops_per_token, iter_time, act_base, hop))
        costs = self._costs_by_batch[batch] = (activation_bytes(1.0, batch), per_stage)
        return costs

    def _build_stages(
        self, plan: PartitionPlan, reservations: list[StageReservation]
    ) -> list[StageRuntime]:
        return [
            StageRuntime(
                self.sim,
                k,
                stage_plan,
                reservation,
                self._on_stage_done,
                interference=self.interference,
            )
            for k, (stage_plan, reservation) in enumerate(
                zip(plan.stages, reservations)
            )
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _transition(self, new_state: ReplicaState) -> None:
        """Move to ``new_state``, recording the step and flagging illegal
        moves as anomalies (the auditor's state-machine invariant)."""
        if new_state not in ALLOWED_TRANSITIONS[self.state]:
            self.anomalies.append(
                f"illegal transition {self.state.value} -> {new_state.value} "
                f"at t={self.sim.now:.6f}"
            )
        router = self.router
        if router is not None and (self.state is ReplicaState.ACTIVE) != (
            new_state is ReplicaState.ACTIVE
        ):
            # Entering or leaving ACTIVE adds or removes this replica's
            # counts from its router's queue sums.
            sign = 1 if new_state is ReplicaState.ACTIVE else -1
            router.shift(sign * self.queue_length, sign * len(self.batcher))
        self.state = new_state
        self.state_history.append((self.sim.now, new_state))

    def activate(self) -> None:
        """Mark loading finished; the router may now dispatch to us."""
        if self.state is not ReplicaState.LOADING:
            raise RuntimeError(f"activate() in state {self.state}")
        self._transition(ReplicaState.ACTIVE)
        self.activated_at = self.sim.now
        if self.on_active is not None:
            self.on_active(self)

    def drain(self) -> None:
        """Stop accepting work; release resources when in-flight work ends."""
        if self.state in (ReplicaState.DRAINING, ReplicaState.RELEASED):
            return
        self._transition(ReplicaState.DRAINING)
        self._maybe_release()

    def _maybe_release(self) -> None:
        if (
            self.state is ReplicaState.DRAINING
            and self.inflight_jobs == 0
            and len(self.batcher) == 0
        ):
            self._transition(ReplicaState.RELEASED)
            if self.on_released is not None:
                self.on_released(self)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    @property
    def accepting(self) -> bool:
        return self.state is ReplicaState.ACTIVE

    @property
    def max_batch(self) -> int:
        """The batch size this replica actually serves at.

        Deployment under fragmentation (and degraded refactor transitions)
        may halve the batch below ``plan.max_batch``; routing and capacity
        signals must normalise by this effective value, not the plan's
        optimum, or degraded replicas get systematically over-loaded.
        """
        return self.batcher.config.max_batch

    @property
    def queue_length(self) -> int:
        """Requests waiting or executing here (JSQ routing signal)."""
        return len(self.batcher) + self.inflight_requests

    def submit(self, request: Request) -> None:
        if not self.accepting:
            raise RuntimeError(f"submit() to {self.name} in state {self.state}")
        self.accepted_requests += 1
        if self.router is not None:
            self.router.shift(1, 1)
        self.batcher.enqueue(request)

    def use_priority_batcher(
        self,
        priority_of: Callable[[Request], int],
        *,
        aging: float | None = None,
    ) -> None:
        """Form batches in class-priority order (QoS); see
        :meth:`DynamicBatcher.use_priority_queue`.  Safe mid-run,
        idempotent per replica."""
        if isinstance(self.batcher.queue, PriorityPendingQueue):
            return
        sim = self.sim
        self.batcher.use_priority_queue(
            PriorityPendingQueue(lambda: sim.now, priority_of, aging=aging)
        )

    def _can_dispatch(self) -> bool:
        return self.stages[0].idle

    def _dispatch(self, requests: list[Request]) -> None:
        now = self.sim.now
        for request in requests:
            request.batch_time = now
        job = self._make_job(requests)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.attach_job(job, self.name, now)
        self.inflight_jobs += 1
        self.inflight_requests += len(requests)
        if self.router is not None and self.state is ReplicaState.ACTIVE:
            self.router.shift(0, -len(requests))
        job.stages = self.stages  # jobs finish on the chain they started on
        chain_key = id(self.stages)
        self._chains[chain_key] = self.stages
        self._chain_jobs[chain_key] = self._chain_jobs.get(chain_key, 0) + 1
        self.stages[0].enqueue(job)

    def _make_job(self, requests: list[Request]) -> BatchJob:
        """Batch formation: each stage's busy and prefill time and each
        inter-stage handoff, from the cost model at the batch's mean
        prompt and output lengths.  Every float is computed in the cost
        model's own expression order, so it is bit-equal to calling
        ``prefill_time``, ``decode_iter_time`` and ``hop_time``."""
        batch = len(requests)
        factor, per_stage = self._costs_by_batch.get(batch) or self._batch_costs(batch)
        prefill_overhead, peak_flops = PREFILL_OVERHEAD, PEAK_FLOPS
        hop_overhead, bandwidth = HOP_OVERHEAD, NIC_BANDWIDTH
        mean_prompt = math.fsum([r.prompt_tokens for r in requests]) / batch
        mean_out = math.fsum([r.output_tokens for r in requests]) / batch
        tokens = batch * mean_prompt
        stage_busy, stage_prefill, handoff = [], [], []
        for flops_per_token, iter_time, act_base, decode_hop in per_stage:
            prefill = prefill_overhead + tokens * flops_per_token / peak_flops
            stage_prefill.append(prefill)
            stage_busy.append(prefill + mean_out * iter_time)
            handoff.append(
                (hop_overhead + act_base * mean_prompt * factor / bandwidth)
                + mean_out * decode_hop
            )
        handoff.pop()  # the last stage hands off to nobody
        return BatchJob(
            jid=next(_job_ids),
            requests=requests,
            stage_busy=stage_busy,
            stage_prefill=stage_prefill,
            handoff=handoff,
            created_at=self.sim.now,
        )

    # ------------------------------------------------------------------
    # Stage completion plumbing
    # ------------------------------------------------------------------
    def _on_stage_done(self, job: BatchJob, stage_index: int) -> None:
        stages: list[StageRuntime] = job.stages
        if stage_index == 0 and stages is self.stages:
            # Entry stage freed: more queued requests may dispatch.
            self.batcher.pump()
        if stage_index + 1 < len(stages):
            delay = job.handoff[stage_index]
            job.comm_time += delay
            self.sim.schedule(delay, stages[stage_index + 1].enqueue, job)
            return
        self._complete_job(job, stages)

    def _complete_job(self, job: BatchJob, stages: list[StageRuntime]) -> None:
        now = self.sim.now
        last = len(stages) - 1
        prefill_done = job.stage_started[last] + job.stage_prefill[last]
        tracer = self.sim.tracer
        for request in job.requests:
            request.exec_start = job.exec_start
            request.prefill_done = prefill_done
            request.completion_time = now
            request.exec_time = job.exec_time
            request.comm_time = job.comm_time
            latency = now - request.arrival_time
            request.queue_time = max(latency - job.exec_time - job.comm_time, 0.0)
            if tracer is not None:
                tracer.complete(request)
            self.on_request_complete(request)
        self.inflight_jobs -= 1
        self.inflight_requests -= len(job.requests)
        if self.router is not None and self.state is ReplicaState.ACTIVE:
            self.router.shift(-len(job.requests), 0)
        self.completed_requests += len(job.requests)
        chain_key = id(stages)
        tracked = self._chain_jobs.get(chain_key)
        if tracked is None or tracked <= 0:
            # A completing job must be counted against its chain; a missing
            # or zero entry means the chain retired (or was never recorded)
            # while work was still in flight.  Record the one anomaly and
            # stop — decrementing would go negative, and attempting to
            # retire an unknown chain would just log the same defect twice.
            self.anomalies.append(
                f"job {job.jid} completed on untracked chain "
                f"(count={tracked!r}) at t={now:.6f}"
            )
            if tracked is not None:
                self._chain_jobs[chain_key] = 0
        else:
            remaining = tracked - 1
            self._chain_jobs[chain_key] = remaining
            if remaining == 0 and stages[0].retired:
                self._retire_chain(chain_key)
        self._maybe_release()

    # ------------------------------------------------------------------
    # Inflight reconfiguration (used by the refactoring executor)
    # ------------------------------------------------------------------
    def swap_stages(
        self,
        new_plan: PartitionPlan,
        new_reservations: list[StageReservation],
        *,
        batch_cap: int | None = None,
    ) -> list[StageRuntime]:
        """Atomically switch new batches onto a new stage chain.

        Returns the *old* stages, now marked retired; each fires
        ``on_stage_retired`` once its last in-flight job completes (the
        executor then releases or trims its reservation).
        """
        if self.state in (ReplicaState.DRAINING, ReplicaState.RELEASED):
            # A dying replica must not acquire a fresh chain: the new
            # reservations would sit on a replica that stops serving.  The
            # refactoring executor releases the prepared reservations
            # instead of swapping (the refactor-vs-drain race).
            raise RuntimeError(f"swap_stages on a {self.state.value} replica")
        old_stages = self.stages
        for stage in old_stages:
            stage.retired = True
        self._set_plan(new_plan)
        self.stages = self._build_stages(new_plan, new_reservations)
        self.batcher.config = BatcherConfig(
            max_batch=full_batch(new_plan, batch_cap),
            max_wait=self.batcher.config.max_wait,
        )
        self.reconfig_count += 1
        if self.router is not None:
            self.router.moved()
        # A chain with no in-flight work retires immediately.
        old_key = id(old_stages)
        if self._chain_jobs.get(old_key, 0) == 0:
            self._chains.setdefault(old_key, old_stages)
            self._retire_chain(old_key)
        self.batcher.pump()
        return old_stages

    def swap_stages_inplace(
        self,
        new_plan: PartitionPlan,
        new_reservations: list[StageReservation],
        *,
        batch_cap: int | None = None,
    ) -> list[StageRuntime]:
        """Live in-place reconfiguration entry point.

        Like :meth:`swap_stages`, but the new chain may *share*
        ``StageReservation`` objects with the retiring chain (the
        refactoring executor grows them for the co-residency window and
        trims them back when the old stage retires), and the replica must
        be strictly ACTIVE — an in-place transition mutates the serving
        chain, so it never touches a loading or dying replica (the
        no-service-gap contract the auditor checks against the executor's
        recorded in-place spans).  Queued requests, enqueue times, and
        every batching counter carry across untouched.
        """
        if self.state is not ReplicaState.ACTIVE:
            raise RuntimeError(
                f"swap_stages_inplace on a {self.state.value} replica"
            )
        self.inplace_swaps += 1
        return self.swap_stages(new_plan, new_reservations, batch_cap=batch_cap)

    def _retire_chain(self, chain_key: int) -> None:
        stages = self._chains.pop(chain_key, None)
        self._chain_jobs.pop(chain_key, None)
        if stages is None:
            if chain_key in self._retired_chain_keys:
                self.anomalies.append(
                    f"chain {chain_key} retired twice at t={self.sim.now:.6f}"
                )
            return
        self._retired_chain_keys.add(chain_key)
        for stage in stages:
            if stage in self._retired_stages:
                continue
            self._retired_stages.append(stage)
            if self.on_stage_retired is not None:
                self.on_stage_retired(stage)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_stages(self) -> int:
        return self.plan.n_stages

    def live_reservations(self) -> list[StageReservation]:
        """Every unreleased reservation this replica still holds: the
        current chain plus superseded chains whose in-flight jobs have
        not drained yet (reclamation and audits scan through this)."""
        out: list[StageReservation] = []
        seen: set[int] = set()
        chains = (self.stages, *self._chains.values(), self._retired_stages)
        for stage in (s for chain in chains for s in chain):
            reservation = stage.reservation
            if id(reservation) in seen or reservation.released:
                continue
            seen.add(id(reservation))
            out.append(reservation)
        return out

    def kv_bytes_in_flight(self) -> float:
        """Approximate KV resident for requests currently in the pipeline."""
        return self.inflight_requests * self.profile.spec.kv_bytes_per_request
