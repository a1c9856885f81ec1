"""MuxServe model: flexible spatial-temporal multiplexing.

MuxServe [13] colocates multiple models on shared GPUs to maximise
utilization via statistical multiplexing.  On the shared substrate this is
expressed as a placement preference for already-occupied GPUs plus the
Eq. 9 interference penalty, which is mild for stable workloads (the
conditions MuxServe optimises for) and quadratic in CV for bursty ones —
exactly the trade-off Fig. 8/9 of the paper exposes.
"""

from __future__ import annotations

from repro.baselines.base import StaticPipelineSystem
from repro.core.context import ServingContext
from repro.models.zoo import ModelSpec


class MuxServeSystem(StaticPipelineSystem):
    name = "MuxServe"

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
            reactive=False,  # multiplexing instead of scaling
            prefer_colocation=True,
            gamma0=0.12,  # sharing-heavy placement amplifies interference
            historical_cv=historical_cv,
            **kwargs,
        )
