"""Kingman's G/G/1 approximation (the VUT equation).

Eq. 1's queue-latency term is a multi-server generalisation of Kingman's
formula; the single-server form is useful on its own for per-stage
analysis because each pipeline stage is a G/G/1 station fed by the stage
upstream.  Kingman:

    W_q ≈ (rho / (1 - rho)) * ((CV_a^2 + CV_s^2) / 2) * tau_s

with service time ``tau_s``, utilization ``rho = lambda * tau_s`` and the
arrival/service coefficients of variation.  The formula is exact for
M/M/1 and asymptotically exact in heavy traffic, which is the regime where
the paper's stall blow-ups (Fig. 3) happen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GG1Station:
    """One G/G/1 service station."""

    arrival_rate: float
    service_time: float
    cv_arrival: float = 1.0
    cv_service: float = 1.0

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")
        if self.service_time <= 0:
            raise ValueError(f"service_time must be positive, got {self.service_time}")
        if self.cv_arrival < 0 or self.cv_service < 0:
            raise ValueError("coefficients of variation cannot be negative")

    @property
    def utilization(self) -> float:
        return self.arrival_rate * self.service_time

    @property
    def stable(self) -> bool:
        return self.utilization < 1.0

    def mean_wait(self) -> float:
        """Kingman's approximation of the mean time in queue."""
        rho = self.utilization
        if rho >= 1.0:
            return float("inf")
        variability = (self.cv_arrival**2 + self.cv_service**2) / 2.0
        return (rho / (1.0 - rho)) * variability * self.service_time

    def mean_sojourn(self) -> float:
        """Mean time in system (queue + service)."""
        return self.mean_wait() + self.service_time

    def mean_queue_length(self) -> float:
        """Little's law applied to the waiting room."""
        wait = self.mean_wait()
        return float("inf") if wait == float("inf") else self.arrival_rate * wait
