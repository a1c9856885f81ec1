"""Table 1 — cluster fragmentation statistics."""


def test_table1_fragmentation_statistics(benchmark, judge):
    judge("table1", benchmark)
