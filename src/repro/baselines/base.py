"""Shared machinery for static/reactive baseline systems."""

from __future__ import annotations

from repro.core.context import ServingContext
from repro.core.deployment import ReplicaFactory
from repro.core.serving import ServingSystem
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import GranularityLadder
from repro.refactoring.placement import interference_multiplier, make_eq6_scorer
from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig, ControlSweep

BASELINE_STAGE_COUNTS = (1, 2, 4, 8, 16, 32)


class StaticPipelineSystem(ServingSystem):
    """A fixed-granularity serving system, optionally reactive.

    Subclasses choose the stage count policy, scaling behaviour, loading
    speed and GPU-sharing preference; none of them can change pipeline
    granularity at runtime — the capability FlexPipe adds.
    """

    name = "static"

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        n_stages: int = 4,
        initial_replicas: int = 1,
        reactive: bool = False,
        loading_speedup: float = 1.0,
        prefer_colocation: bool = False,
        batch_cap: int | None = None,
        max_replicas: int = 8,
        idle_window: float = 30.0,
        scale_interval: float = 0.5,
        scale_cooldown: float = 1.0,
        prompt_tokens: int = 512,
        output_tokens: int = 16,
        slo_deadline: float = 5.0,
        gamma0: float = 0.08,
        alpha_mux: float = 0.25,
    ):
        super().__init__(ctx, model_specs)
        self.initial_replicas = initial_replicas
        self.prefer_colocation = prefer_colocation
        self._gamma0 = gamma0
        self._alpha_mux = alpha_mux
        self.factory = ReplicaFactory(
            ctx,
            routers=self.routers,
            metrics=self.metrics,
            on_request_complete=self._on_request_complete,
            warm_cache=None,  # the host-memory cache is FlexPipe's mechanism
            coordinator=None,
            interference=self._interference,
            batch_cap=batch_cap,
            loading_speedup=loading_speedup,
            cache_on_release=False,
        )
        self.plans = {}
        self.ladders: dict[str, GranularityLadder] = {}
        self.autoscalers: dict[str, Autoscaler] = {}
        sweep = ControlSweep(ctx.sim, scale_interval)
        for spec in model_specs:
            ladder = ctx.ladder(spec, BASELINE_STAGE_COUNTS)
            self.ladders[spec.name] = ladder
            stages = self.choose_stages(spec, ladder, n_stages)
            self.plans[spec.name] = ladder.plan(stages)
            if reactive:
                config = AutoscalerConfig(
                    interval=scale_interval,
                    slo_deadline=slo_deadline,
                    idle_window=idle_window,
                    max_replicas=max_replicas,
                    scale_out_cooldown=scale_cooldown,
                    prompt_tokens=prompt_tokens,
                    output_tokens=output_tokens,
                    batch_cap=batch_cap,
                )
                self.autoscalers[spec.name] = Autoscaler(
                    ctx.sim,
                    self.routers[spec.name],
                    self.monitors[spec.name],
                    self.profiles[spec.name],
                    self.metrics,
                    self._deploy,
                    self.factory.release,
                    self.plans[spec.name],  # granularity is fixed
                    config,
                    sweep=sweep,
                )

    # ------------------------------------------------------------------
    def choose_stages(
        self, spec: ModelSpec, ladder: GranularityLadder, requested: int
    ) -> int:
        """Snap the requested stage count to a feasible ladder rung."""
        counts = ladder.stage_counts
        if requested in counts:
            return requested
        feasible = [c for c in counts if c >= requested]
        return min(feasible) if feasible else max(counts)

    def _scorer(self, model: str):
        monitor = self.monitors[model]
        return make_eq6_scorer(
            lambda: monitor.cv(self.sim.now),
            gamma0=self._gamma0,
            alpha=self._alpha_mux,
            prefer_colocation=self.prefer_colocation,
        )

    def _interference(self, gpu) -> float:
        return interference_multiplier(
            gpu, self.max_cv(), gamma0=self._gamma0, alpha=self._alpha_mux
        )

    def _deploy(self, profile, plan, *, wait_time: float = 0.0, **kwargs):
        return self.factory.deploy(
            profile,
            plan,
            scorer=self._scorer(profile.spec.name),
            wait_time=wait_time,
            **kwargs,
        )

    # ------------------------------------------------------------------
    def enable_qos(self, classes, **kwargs) -> None:
        """Reactive baselines also clamp scale-out to the share cap."""
        super().enable_qos(classes, **kwargs)
        for model, scaler in self.autoscalers.items():
            scaler.share_headroom = (
                lambda m=model: self.ctx.allocator.share_headroom(m)
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        for model, plan in self.plans.items():
            for _ in range(self.initial_replicas):
                replica = self._deploy(
                    self.profiles[model], plan, event_kind="initial"
                )
                scaler = self.autoscalers.get(model)
                if scaler is not None:
                    scaler.loading.append(replica)

    def shutdown(self) -> None:
        super().shutdown()
        for scaler in self.autoscalers.values():
            scaler.stop()
