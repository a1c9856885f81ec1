"""Fig. 9 — burst absorption at CV=8."""


def test_fig9_burst_absorption(benchmark, judge):
    judge("fig9", benchmark)
