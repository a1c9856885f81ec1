"""Tetris model: memory-efficient serverless inference via tensor sharing.

Tetris [24] reduces hosting memory by sharing identical tensors across
instances on the same server, achieving high packing density — but it has
no specialised pipeline parallelism (models run at the coarsest feasible
granularity), modest batch capacity, and scales slowly.  High GPU
utilization with poor goodput under bursts is its signature in Fig. 12.
"""

from __future__ import annotations

from repro.baselines.base import StaticPipelineSystem
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import GranularityLadder


class TetrisSystem(StaticPipelineSystem):
    name = "Tetris"
    loading_speedup = 1.3  # tensor sharing skips duplicate loads
    prefer_colocation = True  # pack instances densely
    # A slow reconciliation loop: Tetris scales out late and seldom.
    scale_interval = 2.0
    scale_cooldown = 5.0

    def default_stages(self, spec: ModelSpec, ladder: GranularityLadder) -> int:
        """Coarsest feasible granularity: whole model on one GPU if it fits."""
        return ladder.coarsest
