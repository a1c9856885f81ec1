"""Pipeline execution runtime.

FlexPipe and all baseline systems serve through this runtime: dynamic
batching, stage-by-stage execution on simulated GPUs, inter-stage
communication, KV-cache accounting with token-level validity masks, and a
per-model router.  Response time decomposes into the queue / execution /
communication components of Fig. 8.
"""

from repro.pipeline.kvcache import KVCacheState, ValidityMask
from repro.pipeline.batching import BatcherConfig, DynamicBatcher
from repro.pipeline.stage import StageRuntime
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.pipeline.router import ModelRouter

__all__ = [
    "KVCacheState",
    "ValidityMask",
    "BatcherConfig",
    "DynamicBatcher",
    "StageRuntime",
    "PipelineReplica",
    "ReplicaState",
    "ModelRouter",
]
