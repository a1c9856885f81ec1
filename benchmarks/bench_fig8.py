"""Fig. 8 — end-to-end latency breakdown across systems and CVs."""


def test_fig8_latency_breakdown(benchmark, judge):
    judge("fig8", benchmark)
