"""Extended G/G/S queueing model of pipeline latency (Eq. 1, §3.3).

    T_total = rho^S / (S! (1 - rho)) * (CV_a^2 + CV_s^2) / 2   [queue latency]
            + sum_i lambda_i / (mu_i - lambda_i)               [stage congestion]

The model explains the dynamic coupling between pipeline depth S and load
burstiness: when CV_a > ~3, finer segmentation (which raises each stage's
service rate) dominates the added register delays, and S ∝ sqrt(CV_a)
minimises latency — the paper's Insight 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Insight 3's depth constant, on the paper's testbed: S = 8 * sqrt(CV_a).
INSIGHT3_SCALE = 8.0


def pipeline_delay(n_stages: int, stage_time: float, hop_time: float) -> float:
    """Deterministic pipeline latency: T = S*tau + (S-1)*delta."""
    if n_stages < 1:
        raise ValueError(f"n_stages must be >= 1, got {n_stages}")
    return n_stages * stage_time + (n_stages - 1) * hop_time


@dataclass(frozen=True)
class GGSModel:
    """Eq. 1 evaluated for an S-stage pipeline under G/G arrivals."""

    arrival_rate: float
    cv_arrival: float
    stage_service_rates: tuple[float, ...]
    cv_service: float = 0.5

    def __post_init__(self) -> None:
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if not self.stage_service_rates:
            raise ValueError("need at least one stage")
        if any(mu <= 0 for mu in self.stage_service_rates):
            raise ValueError("service rates must be positive")

    @property
    def n_stages(self) -> int:
        return len(self.stage_service_rates)

    @property
    def utilization(self) -> float:
        """rho against the bottleneck stage."""
        return self.arrival_rate / min(self.stage_service_rates)

    def queue_latency(self) -> float:
        """The Erlang-style burst term of Eq. 1 (inf when unstable)."""
        rho = self.utilization
        if rho >= 1.0:
            return math.inf
        s = self.n_stages
        burst = (self.cv_arrival**2 + self.cv_service**2) / 2.0
        return (rho**s) / (math.factorial(s) * (1.0 - rho)) * burst

    def congestion_delay(self) -> float:
        """Per-stage congestion: sum_i lambda / (mu_i - lambda)."""
        total = 0.0
        for mu in self.stage_service_rates:
            if mu <= self.arrival_rate:
                return math.inf
            total += self.arrival_rate / (mu - self.arrival_rate)
        return total

    def total_delay(self) -> float:
        return self.queue_latency() + self.congestion_delay()


def optimal_stage_count(cv_arrival: float, *, candidates: tuple[int, ...]) -> int:
    """Insight 3: S = INSIGHT3_SCALE * sqrt(CV_a), snapped to the candidate set.

    Over FlexPipe's ladder, CV=1 -> 8 stages and CV=4 -> 16 stages,
    matching the paper's observation that the 16-stage pipeline wins at
    CV=4.
    """
    if cv_arrival <= 0:
        return min(candidates)
    ideal = INSIGHT3_SCALE * math.sqrt(cv_arrival)
    return min(candidates, key=lambda s: abs(s - ideal))
