"""Arrival processes with controllable burstiness.

``GammaArrivals`` is the workhorse: a Gamma renewal process with shape
``1/CV^2`` has inter-arrival CV exactly equal to the requested value, so the
x-axes of Figs. 3, 4, 8, 10-12 map directly onto its parameter.
``MMPPArrivals`` (Markov-modulated Poisson) provides the regime-switching
bursts used for the CV=8 timeline of Fig. 9.
"""

from __future__ import annotations

import abc
import math

import numpy as np


class ArrivalProcess(abc.ABC):
    """Generates successive inter-arrival times (seconds)."""

    def __init__(self, rate: float, rng: np.random.Generator):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.rng = rng

    @abc.abstractmethod
    def next_interarrival(self) -> float:
        """Draw the next inter-arrival gap."""

    @property
    @abc.abstractmethod
    def cv(self) -> float:
        """Theoretical coefficient of variation of inter-arrival times."""

    def timestamps(self, duration: float, start: float = 0.0) -> list[float]:
        """Materialise all arrival timestamps within ``[start, start+duration)``."""
        out = []
        t = start
        while True:
            t += self.next_interarrival()
            if t >= start + duration:
                break
            out.append(t)
        return out


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals (CV = 1)."""

    def next_interarrival(self) -> float:
        return float(self.rng.exponential(1.0 / self.rate))

    @property
    def cv(self) -> float:
        return 1.0


class GammaArrivals(ArrivalProcess):
    """Gamma-renewal arrivals with exact inter-arrival CV control."""

    def __init__(self, rate: float, cv: float, rng: np.random.Generator):
        super().__init__(rate, rng)
        if cv <= 0:
            raise ValueError(f"cv must be positive, got {cv}")
        self._cv = cv
        self.shape = 1.0 / (cv * cv)
        self.scale = 1.0 / (rate * self.shape)

    def next_interarrival(self) -> float:
        return float(self.rng.gamma(self.shape, self.scale))

    @property
    def cv(self) -> float:
        return self._cv


class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    Alternates between a calm state and a burst state; inter-arrival CV is
    computed from the standard MMPP(2) formula.  Used to create the sustained
    burst episodes of Fig. 9 that a renewal process cannot produce.
    """

    def __init__(
        self,
        rate: float,
        rng: np.random.Generator,
        *,
        burst_factor: float = 8.0,
        burst_fraction: float = 0.12,
        mean_cycle: float = 30.0,
    ):
        super().__init__(rate, rng)
        if burst_factor <= 1:
            raise ValueError("burst_factor must exceed 1")
        if not 0 < burst_fraction < 1:
            raise ValueError("burst_fraction must be in (0,1)")
        # Solve state rates so the long-run average equals ``rate``.
        self.calm_rate = rate / (1 - burst_fraction + burst_fraction * burst_factor)
        self.burst_rate = self.calm_rate * burst_factor
        self.burst_fraction = burst_fraction
        self.mean_burst = mean_cycle * burst_fraction
        self.mean_calm = mean_cycle * (1 - burst_fraction)
        self._in_burst = False
        self._state_ends_in = self._draw_state_duration()

    def _draw_state_duration(self) -> float:
        mean = self.mean_burst if self._in_burst else self.mean_calm
        return float(self.rng.exponential(mean))

    def next_interarrival(self) -> float:
        gap = 0.0
        while True:
            state_rate = self.burst_rate if self._in_burst else self.calm_rate
            candidate = float(self.rng.exponential(1.0 / state_rate))
            if candidate <= self._state_ends_in:
                self._state_ends_in -= candidate
                return gap + candidate
            # State flips before the next arrival: consume remaining time.
            gap += self._state_ends_in
            self._in_burst = not self._in_burst
            self._state_ends_in = self._draw_state_duration()

    @classmethod
    def with_cv(
        cls,
        rate: float,
        cv: float,
        rng: np.random.Generator,
        *,
        mean_cycle: float = 60.0,
    ) -> "MMPPArrivals":
        """Construct an MMPP whose inter-arrival CV matches ``cv``.

        Sustained bursts (unlike a renewal process's micro-clumping) are
        what overwhelm statically provisioned capacity; this solver picks a
        burst fraction appropriate for the target CV and binary-searches
        the burst intensity.
        """
        if cv <= 1.0:
            raise ValueError("MMPP burst model needs cv > 1; use Poisson/Gamma")
        fraction = float(min(0.3, max(1.2 / (cv * cv), 0.04)))
        lo, hi = 1.01, 2000.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            probe = cls(
                rate,
                rng,
                burst_factor=mid,
                burst_fraction=fraction,
                mean_cycle=mean_cycle,
            )
            if probe.cv < cv:
                lo = mid
            else:
                hi = mid
        return cls(
            rate,
            rng,
            burst_factor=(lo + hi) / 2.0,
            burst_fraction=fraction,
            mean_cycle=mean_cycle,
        )

    @property
    def cv(self) -> float:
        """Approximate inter-arrival CV (exact for slow modulation)."""
        p = self.burst_fraction
        r1, r2 = self.calm_rate, self.burst_rate
        mean_rate = (1 - p) * r1 + p * r2
        # Variance of the conditional rate inflates the CV beyond Poisson.
        var_rate = (1 - p) * (r1 - mean_rate) ** 2 + p * (r2 - mean_rate) ** 2
        return math.sqrt(1.0 + 2.0 * var_rate / (mean_rate**2))


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally rate-modulated Poisson arrivals (diurnal swing).

    The instantaneous rate is ``rate * (1 + amplitude*sin(2*pi*t/period))``,
    sampled by Poisson thinning against the peak rate, so long
    measurement windows see the day-scale swing of Fig. 1 while short
    windows stay locally Poisson.  The process keeps its own clock (the
    sum of emitted gaps), which matches simulated time as long as every
    drawn gap is consumed — how :class:`~repro.workloads.generator.
    WorkloadGenerator` uses it.
    """

    def __init__(
        self,
        rate: float,
        rng: np.random.Generator,
        *,
        amplitude: float = 0.6,
        period: float = 86_400.0,
    ):
        super().__init__(rate, rng)
        if not 0 <= amplitude < 1:
            raise ValueError(f"amplitude must be in [0,1), got {amplitude}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.amplitude = amplitude
        self.period = period
        self._t = 0.0
        self._peak = rate * (1.0 + amplitude)

    def rate_at(self, t: float) -> float:
        swing = math.sin(2 * math.pi * t / self.period)
        return self.rate * max(1.0 + self.amplitude * swing, 1e-6)

    def next_interarrival(self) -> float:
        start = self._t
        while True:
            self._t += float(self.rng.exponential(1.0 / self._peak))
            if self.rng.random() <= self.rate_at(self._t) / self._peak:
                return self._t - start

    @property
    def cv(self) -> float:
        """Inter-arrival CV of a sinusoidally modulated Poisson process
        (slow-modulation limit: 1 + variance inflation of the rate)."""
        mean_rate = self.rate
        var_rate = 0.5 * (self.rate * self.amplitude) ** 2
        return math.sqrt(1.0 + 2.0 * var_rate / (mean_rate**2))


class ReplayArrivals(ArrivalProcess):
    """Replays a time-ordered stream of arrival timestamps (trace replay).

    Timestamps are relative to the process start and are consumed
    **lazily**, one per arrival, so replaying a multi-hour Azure window
    never holds the timestamp list in memory.  Negative stamps are
    skipped and out-of-order stamps are clamped forward (a zero gap).
    Once the stream is exhausted the process returns ``inf`` gaps, which
    any duration-bounded generator interprets as "no further arrivals".
    ``rate``/``cv`` are running estimates over the consumed prefix.
    """

    def __init__(self, timestamps, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        super().__init__(1.0, rng)  # provisional; refined as consumed
        self._stream = iter(timestamps)
        self._last = 0.0
        # Running gap statistics (Welford).
        self._gap_count = 0
        self._gap_mean = 0.0
        self._gap_m2 = 0.0

    def next_interarrival(self) -> float:
        for t in self._stream:
            t = float(t)
            if t >= 0.0:
                break
        else:
            return math.inf
        gap = max(t - self._last, 0.0)
        self._last = max(t, self._last)
        self._gap_count += 1
        delta = gap - self._gap_mean
        self._gap_mean += delta / self._gap_count
        self._gap_m2 += delta * (gap - self._gap_mean)
        if self._last > 0:
            self.rate = self._gap_count / self._last
        return gap

    @property
    def cv(self) -> float:
        """Empirical CV of the inter-arrival gaps consumed so far."""
        if self._gap_count < 3 or self._gap_mean <= 0:
            return 0.0
        std = math.sqrt(self._gap_m2 / self._gap_count)
        return std / self._gap_mean


def make_arrivals(
    rate: float, cv: float, rng: np.random.Generator
) -> ArrivalProcess:
    """Factory: Poisson for CV=1, Gamma otherwise."""
    if abs(cv - 1.0) < 1e-9:
        return PoissonArrivals(rate, rng)
    return GammaArrivals(rate, cv, rng)
