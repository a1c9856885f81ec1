"""Fig. 4 — 4/8/16-stage pipeline latency across CVs."""


def test_fig4_granularity_vs_cv(benchmark, judge):
    judge("fig4", benchmark)
