"""ServerlessLLM model: fast checkpoint loading + whole-pipeline scaling.

ServerlessLLM [16] contributes a multi-tier checkpoint loading system
(several times faster than naive storage loads) and locality-aware
serverless scale-up of *whole* inference pipelines at a fixed parallelism
degree (DeepSpeed-style).  It reacts quickly but always in coarse units:
every scale-out pays a full-pipeline load, and granularity never adapts.
"""

from __future__ import annotations

from repro.baselines.base import StaticPipelineSystem


class ServerlessLLMSystem(StaticPipelineSystem):
    name = "ServerlessLLM"
    loading_speedup = 3.0  # multi-tier checkpoint streaming
    # Whole-pipeline units pay full distributed-runtime initialization
    # (process group setup across every stage) on each scale-up; there
    # is no warm-start path to amortise it.
    startup_overhead = 12.0
    idle_window = 10.0  # aggressive serverless reclamation
