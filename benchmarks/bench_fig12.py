"""Fig. 12 — goodput vs GPU utilization."""


def test_fig12_resource_efficiency(benchmark, judge):
    judge("fig12", benchmark)
