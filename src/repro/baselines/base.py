"""Shared machinery for static/reactive baseline systems."""

from __future__ import annotations

from repro.core.context import ServingContext
from repro.core.serving import ServingSystem
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import FULL_LADDER, GranularityLadder
from repro.partitioning.plan import PartitionPlan
from repro.refactoring.granularity import GranularityPolicy
from repro.refactoring.placement import make_eq6_scorer


def snap_stages(ladder: GranularityLadder, requested: int) -> int:
    """``requested`` stages, snapped up to the nearest feasible rung
    (the finest when none is as fine)."""
    counts = ladder.stage_counts
    return min((c for c in counts if c >= requested), default=max(counts))


class StaticPipelineSystem(ServingSystem):
    """A fixed-granularity serving system, optionally reactive.

    Subclasses choose the stage count policy and set the policy constants
    of :class:`ServingSystem` (scaling behaviour, loading speed,
    GPU-sharing preference); none of them can change pipeline granularity
    at runtime — the capability FlexPipe adds.

    Every model is served at ``n_stages``, snapped to a feasible ladder
    rung; without it, at the class's own rung (:meth:`default_stages`).
    The other keywords are :class:`ServingSystem`'s.
    """

    name = "static"
    # The offline optimiser's historical CV (AlpaServe, MuxServe): its
    # default rung is Eq. 4's best for this CV and the experiment's
    # request shape.
    historical_cv: float | None = None

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        n_stages: int | None = None,
        **kwargs,
    ):
        super().__init__(ctx, model_specs, **kwargs)
        self.plans: dict[str, PartitionPlan] = {}
        self.ladders: dict[str, GranularityLadder] = {}
        for spec in model_specs:
            ladder = ctx.ladder(spec, FULL_LADDER)
            self.ladders[spec.name] = ladder
            stages = (
                self.default_stages(spec, ladder)
                if n_stages is None
                else snap_stages(ladder, n_stages)
            )
            self.plans[spec.name] = ladder.plan(stages)
        self._build_autoscalers(self.plans)  # granularity is fixed

    # ------------------------------------------------------------------
    def default_stages(self, spec: ModelSpec, ladder: GranularityLadder) -> int:
        """The rung a model is served at when no stage count is asked
        for: the offline optimiser's, or else 4 stages."""
        if self.historical_cv is None:
            return snap_stages(ladder, 4)
        policy = GranularityPolicy(
            self.profiles[spec.name],
            ladder,
            prompt_tokens=self.scaler_config.prompt_tokens,
            output_tokens=self.scaler_config.output_tokens,
        )
        return policy.select(self.historical_cv)

    def _initial_plan(self, model: str) -> PartitionPlan:
        return self.plans[model]

    def _scorer(self, model: str):
        return make_eq6_scorer(
            self.monitors[model].cv(self.sim.now),
            gamma0=self.gamma0,
            prefer_colocation=self.prefer_colocation,
        )
