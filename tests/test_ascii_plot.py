"""Tests for the ASCII figure renderers."""

from __future__ import annotations

import math

import pytest

from repro.metrics.ascii_plot import bar_chart, histogram, sparkline


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


class TestBarCharts:
    def test_bar_chart_scales_to_max(self):
        out = bar_chart(["a", "b"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[0].count("█") == 5
        assert lines[1].count("█") == 10

    def test_bar_chart_title_and_unit(self):
        out = bar_chart(["x"], [3.0], title="T", unit="s")
        assert out.startswith("T\n")
        assert "3s" in out

    def test_bar_chart_mismatched_lengths(self):
        with pytest.raises(ValueError, match="labels"):
            bar_chart(["a"], [1.0, 2.0])

    def test_bar_chart_empty(self):
        assert bar_chart([], [], title="t") == "t"


class TestHistogram:
    def test_counts_sum_to_samples(self):
        out = histogram([1, 1, 2, 3, 3, 3], bins=3)
        counts = [int(line.rsplit(" ", 1)[-1]) for line in out.splitlines()]
        assert sum(counts) == 6

    def test_empty_data(self):
        assert "(no data)" in histogram([], title="h")

    def test_filters_non_finite(self):
        out = histogram([1.0, math.inf, math.nan, 2.0], bins=2)
        counts = [int(line.rsplit(" ", 1)[-1]) for line in out.splitlines()]
        assert sum(counts) == 2

    def test_validates_bins(self):
        with pytest.raises(ValueError, match="bins"):
            histogram([1.0], bins=0)
