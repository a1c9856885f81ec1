"""FlexPipe: the adaptive serving system (Fig. 5, Algorithm 1).

Per control interval, for every model:

1. monitor request intensity λ_t and the inter-arrival CV ν_t;
2. score every ladder rung with Eq. 4 and select g*;
3. if g* differs from the current granularity (with hysteresis), trigger
   inflight refactoring of the active replicas — staggered one replica per
   interval so capacity never dips;
4. reconcile the replica count via the autoscaler (Eq. 5 capacity + Eq. 11
   burst granularity + Eq. 12 SLO pressure), placed with Eq. 13 affinity
   and HRG coordination, loading warm from host-memory caches.

Ablation flags disable individual mechanisms for the A1-A4 benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.core.context import ServingContext
from repro.core.serving import ServingSystem
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import FULL_LADDER, GranularityLadder
from repro.partitioning.plan import PartitionPlan
from repro.pipeline.replica import PipelineReplica
from repro.pipeline.sizing import floor_footprint
from repro.refactoring.executor import RefactoringExecutor
from repro.refactoring.granularity import GranularityPolicy
from repro.scaling.affinity import AffinityScheduler
from repro.scaling.coordinator import ScalingCoordinator
from repro.scaling.decision import G_MAX, scaling_granularity
from repro.scaling.warm_cache import HostParamCache
from repro.simulation.processes import PeriodicProcess, VisitSet, arm, disarm
from repro.workloads.requests import OUTPUT_TOKENS, PROMPT_TOKENS, SLO_LATENCY

# Algorithm 1's control interval; the max-CV cache refreshes on it too.
CONTROL_INTERVAL = 1.0
# The candidate granularities G (every pipelined rung of the full
# ladder) and the rung each model starts at.
STAGE_COUNTS = FULL_LADDER[1:]
INITIAL_STAGES = 4
SWITCH_MARGIN = 1.35  # hysteresis: a new rung's Eq. 4 score must win decisively
REFACTOR_DWELL = 20.0  # min seconds between refactors per model


@dataclass
class _ModelState:
    spec: ModelSpec
    ladder: GranularityLadder
    policy: GranularityPolicy
    executor: RefactoringExecutor
    current_stages: int
    last_target_change: float = -1e9
    # Marks the tenant live; set while it rests (see _control_tick).
    mark: Callable[[], None] | None = None


class FlexPipeSystem(ServingSystem):
    """The full FlexPipe stack on the simulated substrate."""

    name = "FlexPipe"
    cv_refresh = CONTROL_INTERVAL
    idle_window = 300.0  # the paper's 5-minute reclamation window (§9.4)
    max_replicas = 16
    # Eq. 12 burst-feasibility headroom: the target utilization divides by
    # (1 + cv_headroom * CV), holding spare capacity under bursty load.
    cv_headroom = 0.25

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        initial_replicas: int = 1,
        enable_refactoring: bool = True,
        enable_warm_cache: bool = True,
        enable_hrg: bool = True,
        enable_affinity: bool = True,
        batch_cap: int | None = None,
        prompt_tokens: int = PROMPT_TOKENS,
        output_tokens: int = OUTPUT_TOKENS,
        slo_deadline: float = SLO_LATENCY,
        cache_policy: str = "lru",
        pipelined_loading: bool = False,
        # None keeps the historical floor max(1, initial_replicas); 0
        # enables full scale-to-zero serverless churn.
        min_replicas: int | None = None,
        scale_in_idle_window: float | None = None,
    ):
        # The policy attributes the substrate is built from.
        self.pipelined_loading = pipelined_loading
        self.warm_cache = (
            HostParamCache(policy=cache_policy) if enable_warm_cache else None
        )
        self.coordinator = ScalingCoordinator(
            ctx.hrg,
            AffinityScheduler(),
            use_hrg=enable_hrg,
            use_affinity=enable_affinity,
            cv_fn=self.max_cv,
        )
        # The always-on reservation (30% of peak) is a floor: elastic
        # capacity above it is reclaimed, the floor never is (§9.6).
        # An explicit min_replicas overrides it (0 = scale-to-zero).
        if min_replicas is None:
            min_replicas = max(self.min_replicas, initial_replicas)
        self.min_replicas = min_replicas
        if scale_in_idle_window is not None:
            self.idle_window = scale_in_idle_window
        super().__init__(
            ctx,
            model_specs,
            initial_replicas=initial_replicas,
            batch_cap=batch_cap,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            slo_deadline=slo_deadline,
        )
        self.enable_refactoring = enable_refactoring
        self._models: dict[str, _ModelState] = {}
        for spec in model_specs:
            profile = self.profiles[spec.name]
            ladder = ctx.ladder(spec, STAGE_COUNTS)
            policy = GranularityPolicy(
                profile,
                ladder,
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
                batch_cap=self.factory.batch_cap,
            )
            executor = RefactoringExecutor(profile, ladder, self.factory)
            self._models[spec.name] = _ModelState(
                spec=spec,
                ladder=ladder,
                policy=policy,
                executor=executor,
                current_stages=self._initial_stages(ladder),
            )
        # The tenants the refactoring loop visits without QoS (indices
        # into _states, the loop's order); see _control_tick.
        self._states = list(self._models.values())
        self._live = VisitSet(range(len(self._states)))
        self._build_autoscalers(
            {name: self._make_plan_for(state) for name, state in self._models.items()}
        )
        for scaler in self.autoscalers.values():
            # A deploy builds its placement scorer before allocating, and
            # that reads (and may refresh) the max-CV cache; a parked tick
            # skips the deploy, so it makes the same read.
            scaler.on_park = self.max_cv
        self._controller = PeriodicProcess(
            ctx.sim, CONTROL_INTERVAL, self._control_tick
        )

    # ------------------------------------------------------------------
    def _initial_stages(self, ladder: GranularityLadder) -> int:
        counts = ladder.stage_counts
        if INITIAL_STAGES in counts:
            return INITIAL_STAGES
        # Fall back to the closest feasible rung (large models may not
        # support very coarse granularities under the memory cap).
        return min(counts, key=lambda c: abs(c - INITIAL_STAGES))

    def _make_plan_for(self, state: _ModelState):
        g_max = min(G_MAX, state.ladder.finest)
        idle = scaling_granularity(0.0, 0, g_max=g_max)  # Eq. 11 at q̂ = 0

        def plan_for(cv: float, queue: int) -> PartitionPlan:
            """Scale-out granularity: Eq. 11, snapped to a ladder rung."""
            m = scaling_granularity(cv, queue, g_max=g_max) if queue > 0 else idle
            counts = state.ladder.stage_counts
            snapped = min((c for c in counts if c >= m), default=counts[-1])
            # Never scale out with a coarser unit than the serving target.
            return state.ladder.plan(max(snapped, state.current_stages))

        return plan_for

    def _initial_plan(self, model: str) -> PartitionPlan:
        """The always-on replica set starts at the initial granularity."""
        state = self._models[model]
        return state.ladder.plan(state.current_stages)

    def deploy_extra(self, model: str, rng) -> PipelineReplica:
        """A scripted scale-out lands on a random ladder rung."""
        ladder = self._models[model].ladder
        counts = ladder.stage_counts
        plan = ladder.plan(int(counts[int(rng.integers(len(counts)))]))
        return self._deploy(self.profiles[model], plan)

    # ------------------------------------------------------------------
    def enable_qos(
        self,
        classes,
        *,
        share_caps: dict[str, float] | None = None,
        elastic: bool = False,
    ) -> None:
        """QoS on FlexPipe also drives the *adaptive* layers.

        Beyond the base mechanisms (priority routing + attainment
        tracking), each tenant's autoscaler consumes its class-weighted
        attainment pressure, and the control loop visits tenants most
        urgent first (class priority, then worst attainment) — a violated
        interactive tenant scales out and refactors before a happy batch
        tenant gets a turn at scarce GPUs.
        """
        super().enable_qos(classes, share_caps=share_caps, elastic=elastic)
        # The loop now visits every tenant in urgency order.
        for state in self._states:
            if state.mark is not None:
                self._revive(state)
        for name, scaler in self.autoscalers.items():
            slo_class = self.qos_class_of(name)
            scaler.slo_pressure = (
                lambda n=name, c=slo_class: self.qos_tracker.pressure(n, c)
            )
        if elastic:
            # Elastic mode arms the transition-machinery extensions too:
            # in-place resize/merge on live replicas (chosen per
            # transition by the executor's cost model) and preemptible
            # prepared-chain claims, so arbitration can cancel a
            # lower-class tenant's in-flight preparation.
            for state in self._models.values():
                state.executor.elastic = True

    def _qos_ordered_states(self) -> list[_ModelState]:
        """Control-loop visit order: most urgent tenant first under QoS."""
        if self.qos_tracker is None:
            return list(self._models.values())
        tracker = self.qos_tracker

        def urgency(item):
            name, _ = item
            attainment = tracker.attainment(name)
            return (
                self.qos_class_of(name).priority,
                1.0 if attainment is None else attainment,
            )

        return [state for _, state in sorted(self._models.items(), key=urgency)]

    # ------------------------------------------------------------------
    def _control_tick(self) -> None:
        """Algorithm 1's main loop body.

        Under QoS every tenant is visited, most urgent first (the ordering
        reads the attainment windows, which prunes their running sums).
        Otherwise only *live* tenants are: a visit with fewer than four
        arrivals in the window, and every active replica at the target
        granularity, neither retargets nor refactors, and neither can a
        later one until an arrival, a replica activation or a plan switch
        marks the tenant live again.  Skipping a visit also skips its
        ``monitor.cv`` read, which is value-neutral (see SlidingWindowCV).
        """
        now = self.sim.now
        if self.qos_tracker is not None:
            states = self._qos_ordered_states()
            if self.enable_refactoring:
                for state in states:
                    self._visit(state, now)
            return
        if not self.enable_refactoring:
            return
        states = self._states
        for rank in self._live.visit():
            state = states[rank]
            if state.mark is not None:
                self._revive(state)
            if self._visit(state, now):
                self._rest(state, rank)

    def _visit(self, state: _ModelState, now: float) -> bool:
        """One tenant's turn; returns whether it can rest (no QoS)."""
        monitor = self.monitors[state.spec.name]
        cv = monitor.cv(now)
        # A tenant actively missing its class SLO halves its dwell:
        # the refactoring monitor reacts on the violation timescale,
        # not the calm-weather hysteresis timescale.
        dwell = REFACTOR_DWELL
        scaler = self.autoscalers[state.spec.name]
        pressure = scaler.slo_pressure
        if pressure is not None and pressure() > 0:
            dwell *= 0.5
        arrivals = monitor.window_count(now)
        if arrivals >= 4 and now - state.last_target_change >= dwell:
            target = state.policy.select(cv)
            if target != state.current_stages:
                scores = state.policy.scores(cv)
                if scores[target] >= SWITCH_MARGIN * scores[
                    state.current_stages
                ]:
                    state.current_stages = target
                    state.last_target_change = now
                    scaler.mark()  # plan_for reads the serving target
        # Converge replicas toward the target granularity, one per
        # interval (staggered so serving capacity never dips).  A
        # refactor transiently co-resides old and new chains, so a
        # tenant without share-cap headroom for even the most degraded
        # target chain skips the attempt instead of churning the
        # allocator against its own cap every interval.
        if not self._share_allows_refactor(state):
            return False
        settled = arrivals < 4
        for replica in self.routers[state.spec.name].active_replicas:
            if replica.plan.n_stages != state.current_stages:
                settled = False
                if state.executor.refactor(replica, state.current_stages):
                    break
        return settled

    def _rest(self, state: _ModelState, rank: int) -> None:
        """Leave the live set until the tenant's monitor or router moves."""
        self._live.discard(rank)
        state.mark = partial(self._live.add, rank)
        arm(self.monitors[state.spec.name], state.mark)
        arm(self.routers[state.spec.name], state.mark)

    def _revive(self, state: _ModelState) -> None:
        disarm(self.monitors[state.spec.name], state.mark)
        disarm(self.routers[state.spec.name], state.mark)
        state.mark = None

    def _share_allows_refactor(self, state: _ModelState) -> bool:
        """Whether the tenant's share cap could host a prepared chain."""
        headroom = self.ctx.allocator.share_headroom(state.spec.name)
        if math.isinf(headroom):
            return True
        if state.executor.elastic:
            # In-place transitions only need the parameter/KV *delta*;
            # the executor's prepare does the real byte-level checks (and
            # falls back between modes), so a cap that cannot host a full
            # prepared chain no longer vetoes the attempt up front.
            return True
        need = floor_footprint(
            state.ladder.plan(state.current_stages),
            self.factory.batch_cap,
            state.spec.kv_bytes_per_request,
        )
        return headroom >= need

    # ------------------------------------------------------------------
    def on_gpu_reclaimed(self, gpu) -> None:
        """Abort refactor transitions holding prepared stages on ``gpu``."""
        for state in self._models.values():
            state.executor.abort_on_cordon(gpu)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        super().shutdown()
        self._controller.stop()

    # ------------------------------------------------------------------
    # Introspection for tests/benchmarks
    # ------------------------------------------------------------------
    def current_granularity(self, model: str) -> int:
        return self._models[model].current_stages

    def refactor_counts(self) -> dict[str, int]:
        return {
            name: state.executor.transitions_completed
            for name, state in self._models.items()
        }

    def executors(self) -> dict[str, RefactoringExecutor]:
        """Per-model refactoring executors (the auditor reads their
        switched/aborted tokens and in-place spans)."""
        return {name: state.executor for name, state in self._models.items()}
