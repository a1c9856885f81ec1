"""Fig. 1 — request CV across measurement windows."""


def test_fig1_cv_window_mismatch(benchmark, judge):
    judge("fig1", benchmark)
