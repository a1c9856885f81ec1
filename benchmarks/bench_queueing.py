"""Eq. 1 — the extended G/G/S pipeline delay model."""


def test_eq1_ggs_model(benchmark, judge):
    judge("queueing", benchmark)
