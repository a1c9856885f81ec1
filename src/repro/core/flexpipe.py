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

from repro.core.config import FlexPipeConfig
from repro.core.context import ServingContext
from repro.core.deployment import ReplicaFactory
from repro.core.serving import ServingSystem
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import GranularityLadder
from repro.partitioning.plan import PartitionPlan
from repro.pipeline.sizing import floor_footprint
from repro.refactoring.executor import RefactoringExecutor
from repro.refactoring.granularity import GranularityPolicy
from repro.refactoring.placement import interference_multiplier
from repro.scaling.affinity import AffinityScheduler, AffinityWeights
from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig, ControlSweep
from repro.scaling.coordinator import ScalingCoordinator
from repro.scaling.decision import scaling_granularity
from repro.scaling.warm_cache import HostParamCache
from repro.simulation.processes import PeriodicProcess


@dataclass
class _ModelState:
    spec: ModelSpec
    ladder: GranularityLadder
    policy: GranularityPolicy
    executor: RefactoringExecutor
    autoscaler: Autoscaler
    current_stages: int
    last_target_change: float = -1e9


class FlexPipeSystem(ServingSystem):
    """The full FlexPipe stack on the simulated substrate."""

    name = "FlexPipe"

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        config: FlexPipeConfig | None = None,
        *,
        initial_replicas: int = 1,
        enable_refactoring: bool = True,
        enable_warm_cache: bool = True,
        enable_hrg: bool = True,
        enable_affinity: bool = True,
        batch_cap: int | None = None,
        prompt_tokens: int = 512,
        output_tokens: int = 16,
        slo_deadline: float = 5.0,
        max_replicas: int | None = None,
        cache_policy: str = "lru",
        pipelined_loading: bool = False,
        # None keeps the historical floor max(cfg.min_replicas,
        # initial_replicas); 0 enables full scale-to-zero serverless churn.
        min_replicas: int | None = None,
        scale_in_idle_window: float | None = None,
    ):
        self.config = config or FlexPipeConfig()
        super().__init__(
            ctx,
            model_specs,
            cv_window=self.config.cv_window,
            cv_refresh=self.config.control_interval,
        )
        cfg = self.config
        self.enable_refactoring = enable_refactoring
        self.initial_replicas = initial_replicas
        self.pipelined_loading = pipelined_loading
        self.warm_cache = (
            HostParamCache(policy=cache_policy) if enable_warm_cache else None
        )
        self.affinity = AffinityScheduler(
            AffinityWeights(cfg.affinity_w_t, cfg.affinity_w_g, cfg.affinity_decay)
        )
        self.coordinator = ScalingCoordinator(
            ctx.hrg,
            self.affinity,
            use_hrg=enable_hrg,
            use_affinity=enable_affinity,
            cv_fn=self.max_cv,
        )
        self.factory = ReplicaFactory(
            ctx,
            routers=self.routers,
            metrics=self.metrics,
            on_request_complete=self._on_request_complete,
            warm_cache=self.warm_cache,
            coordinator=self.coordinator,
            interference=self._interference,
            batch_cap=batch_cap,
            batcher_max_wait=cfg.batcher_max_wait,
            pipelined_loading=pipelined_loading,
        )
        scaler_config = AutoscalerConfig(
            slo_deadline=slo_deadline,
            idle_window=(
                cfg.scale_in_idle_window
                if scale_in_idle_window is None
                else scale_in_idle_window
            ),
            # The always-on reservation (30% of peak) is a floor: elastic
            # capacity above it is reclaimed, the floor never is (§9.6).
            # An explicit min_replicas overrides it (0 = scale-to-zero).
            min_replicas=(
                max(cfg.min_replicas, initial_replicas)
                if min_replicas is None
                else min_replicas
            ),
            max_replicas=max_replicas or cfg.max_replicas,
            target_utilization=cfg.target_utilization,
            beta1=cfg.beta1,
            beta2=cfg.beta2,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            batch_cap=batch_cap,
            cv_headroom=cfg.cv_headroom,
        )
        self._models: dict[str, _ModelState] = {}
        sweep = ControlSweep(ctx.sim, scaler_config.interval)
        for spec in model_specs:
            profile = self.profiles[spec.name]
            ladder = ctx.ladder(spec, cfg.stage_counts)
            policy = GranularityPolicy(
                profile,
                ladder,
                alpha=cfg.alpha_tradeoff,
                sigma=cfg.sigma_sensitivity,
                cv_setpoint_scale=cfg.cv_setpoint_scale,
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
                batch_cap=batch_cap,
            )
            executor = RefactoringExecutor(
                ctx,
                profile,
                ladder,
                self.metrics,
                warm_cache=self.warm_cache,
                decision_latency=cfg.decision_latency,
                batch_cap=batch_cap,
                pipelined_loading=pipelined_loading,
            )
            initial = self._initial_stages(ladder)
            state = _ModelState(
                spec=spec,
                ladder=ladder,
                policy=policy,
                executor=executor,
                autoscaler=None,  # set below (needs plan_for closure)
                current_stages=initial,
            )
            state.autoscaler = Autoscaler(
                ctx.sim,
                self.routers[spec.name],
                self.monitors[spec.name],
                profile,
                self.metrics,
                self.factory.deploy,
                self.factory.release,
                self._make_plan_for(state),
                scaler_config,
                sweep=sweep,
            )
            # A deploy builds its placement scorer before allocating, and
            # that reads (and may refresh) the max-CV cache; a parked tick
            # skips the deploy, so it makes the same read.
            state.autoscaler.on_park = self.max_cv
            self._models[spec.name] = state
        self._controller = PeriodicProcess(
            ctx.sim, cfg.control_interval, self._control_tick
        )

    # ------------------------------------------------------------------
    def _initial_stages(self, ladder: GranularityLadder) -> int:
        wanted = self.config.initial_stages
        counts = ladder.stage_counts
        if wanted in counts:
            return wanted
        # Fall back to the closest feasible rung (large models may not
        # support very coarse granularities under the memory cap).
        return min(counts, key=lambda c: abs(c - wanted))

    def _make_plan_for(self, state: _ModelState):
        cfg = self.config

        def plan_for(cv: float, queue: int) -> PartitionPlan:
            """Scale-out granularity: Eq. 11, snapped to a ladder rung."""
            m = scaling_granularity(
                cv,
                queue,
                g_max=min(cfg.g_max, state.ladder.finest),
                beta=cfg.beta_sigmoid,
                gamma=cfg.gamma_sigmoid,
                queue_capacity=cfg.queue_capacity,
            )
            counts = state.ladder.stage_counts
            snapped = min(
                (c for c in counts if c >= m), default=counts[-1]
            )
            # Never scale out with a coarser unit than the serving target.
            return state.ladder.plan(max(snapped, state.current_stages))

        return plan_for

    def _interference(self, gpu) -> float:
        """Eq. 9 execution-time inflation on shared GPUs.

        Uses the control-interval CV cache: this runs on *every* stage
        start, and the windowed CV only moves on the control-loop timescale.
        """
        cfg = self.config
        return interference_multiplier(
            gpu, self.max_cv(), gamma0=cfg.gamma0, alpha=cfg.alpha_mux
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Deploy the always-on replica set at the initial granularity."""
        for state in self._models.values():
            plan = state.ladder.plan(state.current_stages)
            for _ in range(self.initial_replicas):
                replica = self.factory.deploy(
                    self.profiles[state.spec.name],
                    plan,
                    event_kind="initial",
                )
                state.autoscaler.loading.append(replica)

    # ------------------------------------------------------------------
    def enable_qos(self, classes, **kwargs) -> None:
        """QoS on FlexPipe also drives the *adaptive* layers.

        Beyond the base mechanisms (priority routing + attainment
        tracking), each tenant's autoscaler consumes its class-weighted
        attainment pressure, and the control loop visits tenants most
        urgent first (class priority, then worst attainment) — a violated
        interactive tenant scales out and refactors before a happy batch
        tenant gets a turn at scarce GPUs.
        """
        super().enable_qos(classes, **kwargs)
        for name, state in self._models.items():
            slo_class = self.qos_class_of(name)
            state.autoscaler.slo_pressure = (
                lambda n=name, c=slo_class: self.qos_tracker.pressure(n, c)
            )
            # Share-cap awareness: the autoscaler only asks for replicas
            # the tenant's remaining headroom can host.  With elastic
            # contracts on, share_headroom already includes borrowable
            # idle headroom, so the same hook becomes contract-aware.
            state.autoscaler.share_headroom = (
                lambda n=name: self.ctx.allocator.share_headroom(n)
            )
        if kwargs.get("elastic"):
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
        """Algorithm 1's main loop body."""
        now = self.sim.now
        cfg = self.config
        for state in self._qos_ordered_states():
            if not self.enable_refactoring:
                continue
            monitor = self.monitors[state.spec.name]
            cv = monitor.cv(now)
            # A tenant actively missing its class SLO halves its dwell:
            # the refactoring monitor reacts on the violation timescale,
            # not the calm-weather hysteresis timescale.
            dwell = cfg.refactor_dwell
            if state.autoscaler.slo_pressure is not None and (
                state.autoscaler.slo_pressure() > 0
            ):
                dwell *= 0.5
            if (
                monitor.window_count(now) >= 4
                and now - state.last_target_change >= dwell
            ):
                target = state.policy.select(cv)
                if target != state.current_stages:
                    scores = state.policy.scores(cv)
                    if scores[target] >= cfg.switch_margin * scores[
                        state.current_stages
                    ]:
                        state.current_stages = target
                        state.last_target_change = now
            # Converge replicas toward the target granularity, one per
            # interval (staggered so serving capacity never dips).  A
            # refactor transiently co-resides old and new chains, so a
            # tenant without share-cap headroom for even the most degraded
            # target chain skips the attempt instead of churning the
            # allocator against its own cap every interval.
            if not self._share_allows_refactor(state):
                continue
            router = self.routers[state.spec.name]
            for replica in router.active_replicas:
                if replica.plan.n_stages != state.current_stages:
                    if state.executor.refactor(replica, state.current_stages):
                        break

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
        for state in self._models.values():
            state.autoscaler.stop()

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
