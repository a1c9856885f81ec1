"""AlpaServe model: offline pipeline optimisation on historical patterns.

AlpaServe [25] chooses pipeline configurations that maximise long-term
goodput over a *historical* trace, then provisions statically for peak.
We reproduce this by running FlexPipe's own Eq. 4 quality score at the
historical CV (default 1.0) to pick the stage count offline — the best
static configuration the design space offers — and disabling all runtime
adaptation.  Under shifted request distributions the configuration is
simply wrong, which is the paper's critique.
"""

from __future__ import annotations

from repro.baselines.base import StaticPipelineSystem
from repro.core.context import ServingContext
from repro.models.zoo import ModelSpec


class AlpaServeSystem(StaticPipelineSystem):
    name = "AlpaServe"

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        historical_cv: float = 1.0,
        initial_replicas: int = 1,
        **kwargs,
    ):
        super().__init__(
            ctx,
            model_specs,
            initial_replicas=initial_replicas,
            reactive=False,  # static provisioning for peak
            historical_cv=historical_cv,  # offline optimisation
            **kwargs,
        )
