"""Analytic queueing models (Eq. 1 and the Insight-3 depth rule).

Besides the paper's extended G/G/S model, the package carries the classic
results the benches validate against: Kingman's G/G/1 approximation,
Erlang-B/C for M/M/s replica pools, and pipeline-bubble accounting.
"""

from repro.queueing.ggs import (
    GGSModel,
    optimal_stage_count,
    pipeline_delay,
)
from repro.queueing.kingman import GG1Station
from repro.queueing.erlang import (
    erlang_b,
    erlang_c,
    mms_mean_wait,
    mms_wait_quantile,
    servers_for_wait,
)
from repro.queueing.bubbles import (
    bubble_fraction,
    microbatches_for_bubble,
)

__all__ = [
    "GGSModel",
    "optimal_stage_count",
    "pipeline_delay",
    "GG1Station",
    "erlang_b",
    "erlang_c",
    "mms_mean_wait",
    "mms_wait_quantile",
    "servers_for_wait",
    "bubble_fraction",
    "microbatches_for_bubble",
]
