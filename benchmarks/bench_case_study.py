"""§9.6 — production case study."""


def test_case_study_reservation_reduction(benchmark, judge):
    judge("case-study", benchmark)
