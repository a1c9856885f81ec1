"""Fig. 3 — static pipeline vs request-distribution CV."""


def test_fig3_static_pipeline_vs_cv(benchmark, judge):
    judge("fig3", benchmark)
