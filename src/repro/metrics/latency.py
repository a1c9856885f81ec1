"""Latency statistics helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def percentiles(values, qs=(50, 75, 90, 95, 99)) -> dict[int, float]:
    """The Fig. 10 percentile set."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {int(q): 0.0 for q in qs}
    return {int(q): float(v) for q, v in zip(qs, np.percentile(arr, qs))}


@dataclass(frozen=True)
class LatencyBreakdown:
    """Mean response time split into the Fig. 8 components."""

    queue: float
    execution: float
    communication: float

    @property
    def total(self) -> float:
        return self.queue + self.execution + self.communication

    def __str__(self) -> str:
        return (
            f"total={self.total:.3f}s (queue={self.queue:.3f}, "
            f"exec={self.execution:.3f}, comm={self.communication:.3f})"
        )
