"""Tests for the ASCII sparkline renderer."""

from __future__ import annotations

import math

from repro.metrics.ascii_plot import sparkline


class TestSparkline:
    def test_renders_extremes(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    def test_nan_renders_blank(self):
        assert sparkline([0.0, math.nan, 1.0])[1] == " "

    def test_all_nan(self):
        assert sparkline([math.nan, math.nan]) == "  "

    def test_width_resampling(self):
        line = sparkline(list(range(100)), width=10)
        assert len(line) == 10
        assert line[0] == "▁" and line[-1] == "█"
