"""Fig. 13 — prefill latency across model scales."""


def test_fig13_prefill_latency_by_model(benchmark, judge):
    judge("fig13", benchmark)
