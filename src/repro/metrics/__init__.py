"""Measurement: goodput, latency breakdowns, stalls, utilization.

Implements the paper's metric definitions: goodput = throughput under the
SLO constraint (§9), the queue/execution/communication latency breakdown of
Fig. 8, and the stall/recovery methodology of §9.3 (stall when latency
exceeds 1.5x the P25 baseline, recovered when back under 1.2x).
"""

from repro.metrics.collector import MetricsCollector, RunSummary
from repro.metrics.latency import LatencyBreakdown, percentiles
from repro.metrics.stalls import StallEpisode, detect_stalls, recovery_times
from repro.metrics.report import format_table
from repro.metrics.ascii_plot import bar_chart, histogram, sparkline

__all__ = [
    "MetricsCollector",
    "RunSummary",
    "LatencyBreakdown",
    "percentiles",
    "StallEpisode",
    "detect_stalls",
    "recovery_times",
    "format_table",
    "sparkline",
    "bar_chart",
    "histogram",
]
