"""Shared machinery for static/reactive baseline systems."""

from __future__ import annotations

from repro.core.context import ServingContext
from repro.core.serving import ServingSystem
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import FULL_LADDER, GranularityLadder
from repro.partitioning.plan import PartitionPlan
from repro.refactoring.granularity import GranularityPolicy
from repro.refactoring.placement import make_eq6_scorer


class StaticPipelineSystem(ServingSystem):
    """A fixed-granularity serving system, optionally reactive.

    Subclasses choose the stage count policy and set the policy constants
    of :class:`ServingSystem` (scaling behaviour, loading speed,
    GPU-sharing preference); none of them can change pipeline granularity
    at runtime — the capability FlexPipe adds.

    ``historical_cv`` selects the offline optimiser (AlpaServe, MuxServe):
    each model is served at the Eq. 4 best rung for that CV and the
    experiment's request shape, and ``n_stages`` is ignored.  The other
    keywords are :class:`ServingSystem`'s.
    """

    name = "static"
    historical_cv: float | None = None

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        n_stages: int = 4,
        historical_cv: float | None = None,
        **kwargs,
    ):
        super().__init__(ctx, model_specs, **kwargs)
        if historical_cv is not None:
            self.historical_cv = historical_cv
        self.plans: dict[str, PartitionPlan] = {}
        self.ladders: dict[str, GranularityLadder] = {}
        for spec in model_specs:
            ladder = ctx.ladder(spec, FULL_LADDER)
            self.ladders[spec.name] = ladder
            self.plans[spec.name] = ladder.plan(
                self.choose_stages(spec, ladder, n_stages)
            )
        self._build_autoscalers(self.plans)  # granularity is fixed

    # ------------------------------------------------------------------
    def choose_stages(
        self, spec: ModelSpec, ladder: GranularityLadder, requested: int
    ) -> int:
        """The offline optimiser's rung, or else the requested stage count
        snapped to a feasible ladder rung."""
        if self.historical_cv is not None:
            policy = GranularityPolicy(
                self.profiles[spec.name],
                ladder,
                prompt_tokens=self.scaler_config.prompt_tokens,
                output_tokens=self.scaler_config.output_tokens,
            )
            return policy.select(self.historical_cv)
        counts = ladder.stage_counts
        if requested in counts:
            return requested
        feasible = [c for c in counts if c >= requested]
        return min(feasible) if feasible else max(counts)

    def _initial_plan(self, model: str) -> PartitionPlan:
        return self.plans[model]

    def _scorer(self, model: str):
        return make_eq6_scorer(
            self.monitors[model].cv(self.sim.now),
            gamma0=self.gamma0,
            prefer_colocation=self.prefer_colocation,
        )
