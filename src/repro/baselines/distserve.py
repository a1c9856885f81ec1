"""DistServe-style prefill/decode disaggregation (related work, §10).

DistServe [60] separates prefill and decoding onto independent resource
pools so the two phases stop interfering and scale independently.  The
substrate executes whole requests on one replica chain, so the pool split
is expressed at the *routing* level: requests are classified by phase
dominance (prompt-heavy vs. generation-heavy, the same signal DistServe's
placement uses) and each class is served by its own replica pool with a
phase-optimised granularity:

* the **prefill pool** uses coarse stages — prefill is compute-bound and
  latency-sensitive (TTFT), so inter-stage hops are pure overhead;
* the **decode pool** uses finer stages — decode is memory-bound and
  throughput-oriented, so the larger aggregate batch capacity wins.

This preserves DistServe's observable behaviour (phase isolation,
per-phase scaling, goodput gains on mixed workloads) without modelling
the intra-request KV handoff its testbed performs; the substitution is
recorded in DESIGN.md.  Like the other baselines it cannot change a
pool's granularity at runtime — the capability FlexPipe adds.
"""

from __future__ import annotations

from repro.baselines.base import StaticPipelineSystem
from repro.core.context import ServingContext
from repro.models.zoo import ModelSpec
from repro.pipeline.router import ModelRouter
from repro.workloads.requests import Request


class DistServeSystem(StaticPipelineSystem):
    """Phase-disaggregated serving with per-pool static granularities."""

    name = "DistServe"

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        prefill_stages: int = 4,
        decode_stages: int = 16,
        prefill_fraction: float = 0.5,
        phase_ratio_threshold: float = 16.0,
        initial_replicas: int = 2,
        **kwargs,
    ):
        """``phase_ratio_threshold`` classifies a request as prefill-heavy
        when ``prompt_tokens / output_tokens`` exceeds it; 16 matches the
        coding-vs-conversation split of the Splitwise corpus.
        ``prefill_fraction`` is the share of initial replicas given to the
        prefill pool.
        """
        if not 0.0 < prefill_fraction < 1.0:
            raise ValueError(
                f"prefill_fraction must be in (0, 1), got {prefill_fraction}"
            )
        if phase_ratio_threshold <= 0:
            raise ValueError("phase_ratio_threshold must be positive")
        super().__init__(
            ctx,
            model_specs,
            n_stages=prefill_stages,
            initial_replicas=initial_replicas,
            reactive=True,
            **kwargs,
        )
        self.prefill_fraction = prefill_fraction
        self.phase_ratio_threshold = phase_ratio_threshold
        # The base class built the prefill side (plans, routers,
        # autoscalers).  Build the decode side alongside it.
        self.decode_plans = {}
        self.decode_routers: dict[str, ModelRouter] = {}
        for spec in model_specs:
            ladder = self.ladders[spec.name]
            stages = self.choose_stages(spec, ladder, decode_stages)
            self.decode_plans[spec.name] = ladder.plan(stages)
            self.decode_routers[spec.name] = ModelRouter(
                ctx.sim, f"{spec.name}/decode", self.fleet_queue
            )
        self.prefill_routed = 0
        self.decode_routed = 0

    # ------------------------------------------------------------------
    def all_routers(self) -> dict[str, "ModelRouter"]:
        routers = super().all_routers()
        for name, router in self.decode_routers.items():
            routers[f"{name}/decode"] = router
        return routers

    # ------------------------------------------------------------------
    def classify(self, request: Request) -> str:
        """Phase dominance: which pool should own this request."""
        ratio = request.prompt_tokens / max(request.output_tokens, 1)
        return "prefill" if ratio >= self.phase_ratio_threshold else "decode"

    def _router_for(self, request: Request) -> ModelRouter:
        if self.classify(request) == "prefill":
            self.prefill_routed += 1
            return self.routers[request.model]
        self.decode_routed += 1
        return self.decode_routers[request.model]

    # ------------------------------------------------------------------
    def start(self) -> None:
        for model in self.plans:
            profile = self.profiles[model]
            n_prefill = max(round(self.initial_replicas * self.prefill_fraction), 1)
            n_decode = max(self.initial_replicas - n_prefill, 1)
            for _ in range(n_prefill):
                replica = self._deploy(profile, self.plans[model], event_kind="initial")
                scaler = self.autoscalers.get(model)
                if scaler is not None:
                    scaler.loading.append(replica)
            for _ in range(n_decode):
                self._deploy_decode(profile, model)

    def _deploy_decode(self, profile, model: str):
        """Decode-pool replicas attach to the decode router on activation."""
        plan = self.decode_plans[model]
        replica = self.factory.deploy(
            profile,
            plan,
            scorer=self._scorer(model),
            event_kind="initial",
        )
        # Rebind activation/teardown to the decode router: the factory
        # wired the shared (prefill) router by default.
        replica.on_active = self.decode_routers[model].add
        base_released = replica.on_released

        def released(r):
            # The factory's teardown only knows the prefill routers, so a
            # released decode replica would linger in its decode router
            # forever (a zombie gateway entry) without this removal.
            self.decode_routers[model].remove(r)
            if base_released is not None:
                base_released(r)

        replica.on_released = released
        return replica

    # ------------------------------------------------------------------
    def pool_counts(self, model: str) -> tuple[int, int]:
        """Active (prefill, decode) replica counts for a model."""
        prefill = len([r for r in self.routers[model].replicas if r.accepting])
        decode = len(
            [r for r in self.decode_routers[model].replicas if r.accepting]
        )
        return prefill, decode
