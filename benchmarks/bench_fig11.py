"""Fig. 11 — pipeline-stall recovery time."""


def test_fig11_stall_recovery(benchmark, judge):
    judge("fig11", benchmark)
