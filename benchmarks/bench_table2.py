"""Table 2 — pipeline granularity profile (OPT-66B)."""


def test_table2_granularity_profile(benchmark, judge):
    judge("table2", benchmark)
