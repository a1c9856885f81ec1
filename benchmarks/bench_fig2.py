"""Fig. 2 — GPU subscription and scattered availability."""


def test_fig2_fragmentation_statistics(benchmark, judge):
    judge("fig2", benchmark)
