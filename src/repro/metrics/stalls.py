"""Pipeline-stall detection and recovery measurement (§9.3).

The paper's methodology: a stall begins when response latency exceeds
1.5x the baseline (P25 latency under normal operation) and has recovered
when latency returns under 1.2x baseline.  We evaluate this over the
completion-ordered latency series, smoothed with a short moving median so
single outlier completions do not open/close episodes spuriously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# §9.3: a stall opens above STALL_FACTOR x the baseline (the
# BASELINE_QUANTILE-th percentile latency) and closes under RECOVER_FACTOR
# x it, on the series smoothed by a SMOOTH_WINDOW-point moving median.
STALL_FACTOR = 1.5
RECOVER_FACTOR = 1.2
BASELINE_QUANTILE = 25.0
SMOOTH_WINDOW = 5


@dataclass(frozen=True)
class StallEpisode:
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _moving_median(values: np.ndarray, window: int) -> np.ndarray:
    """Per-point median over ``i - window//2 .. i + window//2``, truncated
    at the series ends."""
    if window <= 1 or values.size <= window:
        return values
    n = values.size
    half = window // 2
    out = np.empty_like(values)
    # Interior points see the full 2*half+1 window: one row-wise median.
    out[half : n - half] = np.median(
        sliding_window_view(values, 2 * half + 1), axis=1
    )
    # The 2*half edge points see windows truncated by the series ends.
    for i in (*range(half), *range(n - half, n)):
        out[i] = np.median(values[max(i - half, 0) : i + half + 1])
    return out


def detect_stalls(completion_times, latencies) -> list[StallEpisode]:
    """Find stall episodes in a latency series (per the §9.3 definitions)."""
    t = np.asarray(list(completion_times), dtype=float)
    lat = np.asarray(list(latencies), dtype=float)
    if t.size != lat.size:
        raise ValueError("completion_times and latencies must align")
    if t.size < 8:
        return []
    order = np.argsort(t)
    t, lat = t[order], lat[order]
    baseline = float(np.percentile(lat, BASELINE_QUANTILE))
    if baseline <= 0:
        return []
    smoothed = _moving_median(lat, SMOOTH_WINDOW)
    stall_at = baseline * STALL_FACTOR
    recover_at = baseline * RECOVER_FACTOR
    episodes: list[StallEpisode] = []
    start: float | None = None
    for ti, li in zip(t, smoothed):
        if start is None and li > stall_at:
            start = ti
        elif start is not None and li < recover_at:
            episodes.append(StallEpisode(start, ti))
            start = None
    if start is not None:
        episodes.append(StallEpisode(start, float(t[-1])))
    return episodes


def recovery_times(episodes: list[StallEpisode]) -> list[float]:
    return [e.duration for e in episodes]
