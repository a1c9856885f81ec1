"""Coefficient-of-variation estimators (Fig. 1 methodology + §6 monitoring).

Two distinct CVs appear in the paper:

* **inter-arrival CV** ``ν_t = σ_t / μ_t`` of request gaps — the control
  signal of the granularity policy (Eq. 4);
* **windowed count CV** — the Fig. 1 statistic, computed over per-window
  request counts, whose value depends strongly on the window size (the 7x
  mismatch motivating runtime adaptation).
"""

from __future__ import annotations

from collections import deque

import numpy as np


def interarrival_cv(timestamps: list[float] | np.ndarray) -> float:
    """CV of inter-arrival gaps; 0.0 when fewer than 3 arrivals."""
    ts = np.asarray(timestamps, dtype=float)
    if ts.size < 3:
        return 0.0
    gaps = np.diff(np.sort(ts))
    mean = gaps.mean()
    if mean <= 0:
        return 0.0
    return float(gaps.std() / mean)


def count_cv(timestamps: list[float] | np.ndarray, window: float, duration: float | None = None) -> float:
    """CV of per-window request counts (the Fig. 1 statistic)."""
    ts = np.asarray(timestamps, dtype=float)
    if ts.size == 0:
        return 0.0
    end = duration if duration is not None else float(ts.max()) + 1e-9
    n_bins = max(int(np.ceil(end / window)), 1)
    if n_bins < 2:
        return 0.0
    counts, _ = np.histogram(ts, bins=n_bins, range=(0.0, n_bins * window))
    mean = counts.mean()
    if mean <= 0:
        return 0.0
    return float(counts.std() / mean)


class SlidingWindowCV:
    """Online inter-arrival CV over a sliding time window.

    The FlexPipe monitor samples this every optimisation interval; it keeps
    only the timestamps inside the window so memory stays bounded.

    ``value`` is memoised on ``(observed, trimmed)``: stamps only join at
    the back and leave at the front, so the pair pins the window's
    contents exactly and an unchanged window is never re-sorted.
    """

    def __init__(self, window: float = 60.0, min_samples: int = 4):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.min_samples = min_samples
        self._times: deque[float] = deque()
        self._last_arrival: float | None = None
        self._observed = 0
        self._trimmed = 0
        self._memo_key: tuple[int, int] | None = None
        self._memo = 0.0

    def observe(self, timestamp: float) -> None:
        if self._last_arrival is not None and timestamp < self._last_arrival - 1e-9:
            raise ValueError("arrivals must be observed in time order")
        self._times.append(timestamp)
        self._last_arrival = timestamp
        self._observed += 1

    def _trim(self, now: float) -> None:
        horizon = now - self.window
        while self._times and self._times[0] < horizon:
            self._times.popleft()
            self._trimmed += 1

    def value(self, now: float) -> float:
        """Current inter-arrival CV; 0.0 until enough samples arrive."""
        self._trim(now)
        n = len(self._times)
        if n < self.min_samples:
            return 0.0
        key = (self._observed, self._trimmed)
        if key != self._memo_key:
            self._memo = interarrival_cv(np.fromiter(self._times, float, n))
            self._memo_key = key
        return self._memo

    def arrival_rate(self, now: float) -> float:
        """Requests/second over the current window."""
        self._trim(now)
        if not self._times:
            return 0.0
        span = min(self.window, max(now - self._times[0], 1e-9))
        return len(self._times) / span

    def count(self, now: float) -> int:
        self._trim(now)
        return len(self._times)
