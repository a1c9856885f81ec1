"""Coefficient-of-variation estimators (Fig. 1 methodology + §6 monitoring).

Two distinct CVs appear in the paper:

* **inter-arrival CV** ``ν_t = σ_t / μ_t`` of request gaps — the control
  signal of the granularity policy (Eq. 4);
* **windowed count CV** — the Fig. 1 statistic, computed over per-window
  request counts, whose value depends strongly on the window size (the 7x
  mismatch motivating runtime adaptation).
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice

import numpy as np

# SlidingWindowCV rebuilds its running Σ(g − c)² once a subtraction keeps
# less than 1/_REBUILD_RATIO of its larger operand: a leaving gap's
# square, or the squared drift of the mean from the pivot.
_REBUILD_RATIO = 1e3


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
    """Online inter-arrival CV over a sliding window, O(1) amortised per call.

    The FlexPipe monitor samples this every optimisation interval; it keeps
    only the timestamps inside the window so memory stays bounded.

    The estimator is Eq. 4's population CV of the in-window gaps, kept as
    running state instead of being recomputed on every read:

    * the gap sum telescopes, so ``mean = (last - first) / (n - 1)`` —
      exactly 0 when every stamp is equal;
    * ``_sq`` is the running Σ(g − c)² over consecutive in-window gaps,
      shifted by a pivot ``c`` (0 for a fresh window, the mean after each
      rebuild), and ``var = _sq / m − (mean − c)²``, clamped at 0.

    ``observe(t)`` trims at ``t`` before adding its gap, so a stamp that
    any later read would trim never adds one.  The operations applied to
    ``_sq`` therefore depend only on the observed stamps and the current
    time, never on when or how often the window is read.  ``_sq`` is
    rebuilt with :func:`math.fsum` over the window, re-centring the pivot
    on the mean, when a leaving gap's square cancels all but 1e-3 of the
    sum, or when the mean has drifted so far from the pivot that ``var``
    is below 1e-3 of ``(mean − c)²`` (near-periodic traffic whose rate
    moved).  Against :func:`interarrival_cv` over the same stamps the
    result agrees within ``1e-9 × max(1, cv)``; the auditor's
    ``cv-window`` invariant checks exactly that.
    """

    def __init__(self, window: float = 60.0, min_samples: int = 4):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self.min_samples = min_samples
        self._times: deque[float] = deque()
        self._last_arrival: float | None = None
        self._pivot = 0.0
        self._sq = 0.0

    def observe(self, timestamp: float) -> None:
        if self._last_arrival is not None and timestamp < self._last_arrival - 1e-9:
            raise ValueError("arrivals must be observed in time order")
        self._last_arrival = timestamp
        self._trim(timestamp)
        times = self._times
        if times:
            gap = timestamp - times[-1] - self._pivot
            self._sq += gap * gap
        times.append(timestamp)
        m = len(times) - 1
        if m > 1:
            drift = (timestamp - times[0]) / m - self._pivot
            drift *= drift
            if (self._sq / m - drift) * _REBUILD_RATIO < drift:
                self._rebuild()

    def __len__(self) -> int:
        """Stamps held, untrimmed (``count`` trims first)."""
        return len(self._times)

    @property
    def oldest(self) -> float:
        """The oldest stamp held, untrimmed (the window must hold one)."""
        return self._times[0]

    def expires(self, now: float) -> bool:
        """Whether a read at ``now`` drops the oldest stamp (``_trim``'s
        test), evaluated without trimming."""
        times = self._times
        return bool(times) and times[0] < now - self.window

    def _trim(self, now: float) -> None:
        horizon = now - self.window
        times = self._times
        while times and times[0] < horizon:
            first = times.popleft()
            if len(times) < 2:
                self._pivot = self._sq = 0.0
                continue
            gap = times[0] - first - self._pivot
            gap *= gap
            self._sq -= gap
            if self._sq * _REBUILD_RATIO < gap:
                self._rebuild()

    def _rebuild(self) -> None:
        times = self._times
        pivot = self._pivot = (times[-1] - times[0]) / (len(times) - 1)
        self._sq = math.fsum(
            (t - prev - pivot) ** 2 for prev, t in zip(times, islice(times, 1, None))
        )

    def value(self, now: float) -> float:
        """Current inter-arrival CV; 0.0 until enough samples arrive."""
        self._trim(now)
        times = self._times
        n = len(times)
        if n < self.min_samples or n < 3:
            return 0.0
        m = n - 1
        mean = (times[-1] - times[0]) / m
        if mean <= 0:
            return 0.0
        drift = mean - self._pivot
        var = self._sq / m - drift * drift
        return math.sqrt(var) / mean if var > 0 else 0.0

    def too_few_stamps(self) -> bool:
        """Whether ``value`` is 0.0 now, decided without trimming: the
        window already holds too few stamps, and trimming only drops
        them."""
        return len(self._times) < max(self.min_samples, 3)

    def stamps(self, now: float) -> list[float]:
        """The in-window arrival stamps at ``now``, oldest first."""
        self._trim(now)
        return list(self._times)

    def arrival_rate(self, now: float) -> float:
        """Requests/second over the current window."""
        self._trim(now)
        return self.rate_at(now)

    def rate_at(self, now: float) -> float:
        """``arrival_rate(now)`` without the trim: the same value while
        ``expires(now)`` is false."""
        times = self._times
        if not times:
            return 0.0
        span = min(self.window, max(now - times[0], 1e-9))
        return len(times) / span

    def count(self, now: float) -> int:
        self._trim(now)
        return len(self._times)
