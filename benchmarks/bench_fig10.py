"""Fig. 10 — latency percentile stability across CVs."""


def test_fig10_percentile_stability(benchmark, judge):
    judge("fig10", benchmark)
