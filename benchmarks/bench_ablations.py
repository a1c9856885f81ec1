"""Ablations — each FlexPipe mechanism removed in turn."""


def test_ablations(benchmark, judge):
    judge("ablations", benchmark)
