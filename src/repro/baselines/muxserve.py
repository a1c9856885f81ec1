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


class MuxServeSystem(StaticPipelineSystem):
    name = "MuxServe"
    reactive = False  # multiplexing instead of scaling
    prefer_colocation = True
    gamma0 = 0.12  # sharing-heavy placement amplifies interference
    historical_cv = 1.0
