"""Sensitivity sweeps — Eq. 4's alpha and sigma, Eq. 11's sigmoid."""


def test_alpha_sensitivity(benchmark, judge):
    judge("sensitivity-alpha", benchmark)


def test_sigma_sensitivity(benchmark, judge):
    judge("sensitivity-sigma", benchmark)


def test_eq11_sigmoid_calibration(benchmark, judge):
    judge("sensitivity-eq11", benchmark)
