"""Synthetic production traces reproducing Fig. 1's CV-vs-window mismatch.

The Alibaba/Azure traces show CV values that differ by up to 7x depending
on the measurement window (180 s vs 3 h vs 12 h): short windows see local
burstiness, long windows see diurnal swings.  ``DiurnalTrace`` composes a
diurnal rate envelope with MMPP-style burst episodes to recreate both
effects without the proprietary data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DiurnalTraceConfig:
    base_rate: float = 4.0  # req/s at the diurnal trough-to-peak midpoint
    diurnal_amplitude: float = 0.6  # peak/trough swing (fraction of base)
    day_seconds: float = 86_400.0
    burst_factor: float = 30.0
    burst_rate_per_hour: float = 5.0  # expected burst episodes per hour
    burst_mean_duration: float = 45.0


class DiurnalTrace:
    """Generates arrival timestamps with diurnal + bursty structure."""

    def __init__(self, rng: np.random.Generator, config: DiurnalTraceConfig | None = None):
        self.rng = rng
        self.config = config or DiurnalTraceConfig()

    def rate_at(self, t: float, bursts: list[tuple[float, float]]) -> float:
        cfg = self.config
        diurnal = 1.0 + cfg.diurnal_amplitude * math.sin(2 * math.pi * t / cfg.day_seconds)
        rate = cfg.base_rate * max(diurnal, 0.05)
        for start, end in bursts:
            if start <= t < end:
                rate *= cfg.burst_factor
                break
        return rate

    def _draw_bursts(self, duration: float) -> list[tuple[float, float]]:
        cfg = self.config
        expected = cfg.burst_rate_per_hour * duration / 3600.0
        n = int(self.rng.poisson(max(expected, 0.0)))
        bursts = []
        for _ in range(n):
            start = float(self.rng.uniform(0.0, duration))
            length = float(self.rng.exponential(cfg.burst_mean_duration))
            bursts.append((start, start + length))
        return sorted(bursts)

    def generate(self, duration: float) -> np.ndarray:
        """Arrival timestamps over ``[0, duration)`` via Poisson thinning
        (vectorised: candidate times drawn in bulk, then accept/reject)."""
        cfg = self.config
        bursts = self._draw_bursts(duration)
        max_rate = cfg.base_rate * (1 + cfg.diurnal_amplitude) * cfg.burst_factor
        n_candidates = int(self.rng.poisson(max_rate * duration))
        times = np.sort(self.rng.uniform(0.0, duration, n_candidates))
        rates = cfg.base_rate * np.maximum(
            1.0 + cfg.diurnal_amplitude * np.sin(2 * np.pi * times / cfg.day_seconds),
            0.05,
        )
        # ``times`` is sorted, so each burst [start, end) is one slice.
        in_burst = np.zeros(times.size, dtype=bool)
        for start, end in bursts:
            in_burst[np.searchsorted(times, start) : np.searchsorted(times, end)] = True
        rates = np.where(in_burst, rates * cfg.burst_factor, rates)
        accept = self.rng.uniform(0.0, 1.0, times.size) <= rates / max_rate
        return times[accept]
