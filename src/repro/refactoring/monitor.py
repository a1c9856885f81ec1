"""Workload monitoring: the ν_t / λ_t signals of Algorithm 1."""

from __future__ import annotations

from repro.workloads.cv import SlidingWindowCV


class WorkloadMonitor:
    """Tracks one model's arrival process online.

    Provides the inter-arrival CV ν_t and the arrival rate λ_t over a
    sliding window, plus ``total_observed``, a running arrival count whose
    movement tells a sleeping autoscaler that its window is no longer
    empty.  Every call is O(1) amortised: ``window`` keeps ν_t as running
    sums (see :class:`SlidingWindowCV`), which the auditor's ``cv-window``
    invariant holds to the Eq. 4 recompute.
    """

    def __init__(self, window: float = 30.0):
        self.window = SlidingWindowCV(window=window)
        self.total_observed = 0

    def observe(self, timestamp: float) -> None:
        self.window.observe(timestamp)
        self.total_observed += 1

    # ------------------------------------------------------------------
    def cv(self, now: float) -> float:
        return self.window.value(now)

    def arrival_rate(self, now: float) -> float:
        return self.window.arrival_rate(now)

    def window_count(self, now: float) -> int:
        return self.window.count(now)
