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


def detect_stalls(
    completion_times,
    latencies,
    *,
    stall_factor: float = 1.5,
    recover_factor: float = 1.2,
    baseline_quantile: float = 25.0,
    smooth_window: int = 5,
) -> list[StallEpisode]:
    """Find stall episodes in a latency series (per the §9.3 definitions)."""
    t = np.asarray(list(completion_times), dtype=float)
    lat = np.asarray(list(latencies), dtype=float)
    if t.size != lat.size:
        raise ValueError("completion_times and latencies must align")
    if t.size < 8:
        return []
    order = np.argsort(t)
    t, lat = t[order], lat[order]
    baseline = float(np.percentile(lat, baseline_quantile))
    if baseline <= 0:
        return []
    smoothed = _moving_median(lat, smooth_window)
    stall_at = baseline * stall_factor
    recover_at = baseline * recover_factor
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
