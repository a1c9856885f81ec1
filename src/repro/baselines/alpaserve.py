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


class AlpaServeSystem(StaticPipelineSystem):
    name = "AlpaServe"
    reactive = False  # static provisioning for peak
    historical_cv = 1.0  # offline optimisation
