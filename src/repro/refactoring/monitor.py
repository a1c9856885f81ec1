"""Workload monitoring: the ν_t / λ_t signals of Algorithm 1."""

from __future__ import annotations

from typing import Callable

from repro.workloads.cv import SlidingWindowCV


class WorkloadMonitor:
    """Tracks one model's arrival process online.

    Provides the inter-arrival CV ν_t and the arrival rate λ_t over a
    sliding window, plus ``total_observed``, a running arrival count whose
    movement tells a sleeping autoscaler that its window is no longer
    empty.  Every call is O(1) amortised: ``window`` keeps ν_t as running
    sums (see :class:`SlidingWindowCV`), which the auditor's ``cv-window``
    invariant holds to the Eq. 4 recompute.

    ``sleepers`` holds the marks of the control loops sleeping until this
    tenant's next arrival; each arrival calls them.
    """

    def __init__(self, window: float = 30.0):  # ν_t's sliding window (s)
        self.window = SlidingWindowCV(window=window)
        self.total_observed = 0
        self.sleepers: tuple[Callable[[], None], ...] = ()

    def observe(self, timestamp: float) -> None:
        self.window.observe(timestamp)
        self.total_observed += 1
        if self.sleepers:
            for mark in self.sleepers:
                mark()

    # ------------------------------------------------------------------
    def cv(self, now: float) -> float:
        return self.window.value(now)

    def arrival_rate(self, now: float) -> float:
        return self.window.arrival_rate(now)

    def window_count(self, now: float) -> int:
        return self.window.count(now)
