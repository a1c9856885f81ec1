"""Tetris model: memory-efficient serverless inference via tensor sharing.

Tetris [24] reduces hosting memory by sharing identical tensors across
instances on the same server, achieving high packing density — but it has
no specialised pipeline parallelism (models run at the coarsest feasible
granularity), modest batch capacity, and scales slowly.  High GPU
utilization with poor goodput under bursts is its signature in Fig. 12.
"""

from __future__ import annotations

from repro.baselines.base import StaticPipelineSystem
from repro.core.context import ServingContext
from repro.models.zoo import ModelSpec

# A slow reconciliation loop: Tetris scales out late and seldom.
SCALE_INTERVAL = 2.0
SCALE_COOLDOWN = 5.0


class TetrisSystem(StaticPipelineSystem):
    name = "Tetris"

    def __init__(
        self,
        ctx: ServingContext,
        model_specs: list[ModelSpec],
        *,
        initial_replicas: int = 1,
        batch_cap: int = 16,  # no paged/pipeline-aware batching
        loading_speedup: float = 1.3,  # tensor sharing skips duplicate loads
        **kwargs,
    ):
        super().__init__(
            ctx,
            model_specs,
            initial_replicas=initial_replicas,
            reactive=True,
            batch_cap=batch_cap,
            loading_speedup=loading_speedup,
            prefer_colocation=True,  # pack instances densely
            scale_interval=SCALE_INTERVAL,
            scale_cooldown=SCALE_COOLDOWN,
            **kwargs,
        )

    def choose_stages(self, spec: ModelSpec, ladder, requested: int) -> int:
        """Coarsest feasible granularity: whole model on one GPU if it fits."""
        return ladder.coarsest
