"""Elastic scaling granularity decision (Eq. 11) and SLO constraint (Eq. 12)."""

from __future__ import annotations

import math

G_MAX = 32  # finest scaling granularity
# Eq. 11's sigmoid offset β and steepness γ, and the queue length q̂
# normalises by.
BETA = 40.0
GAMMA = 10.0
QUEUE_CAPACITY = 512


def scaling_granularity(cv: float, queue_length: int, *, g_max: int = G_MAX) -> int:
    """Eq. 11: sigmoid decision between coarse and fine scaling units.

        m_j = ceil( G_max / (1 + beta * exp(-gamma * cv_j * q̂_j)) )

    Calm, empty systems scale with coarse units (low communication
    overhead); bursty, congested systems scale with the finest units (fast
    parameter loads, large batch capacity).  With the default calibration
    the transition midpoint sits at cv*q̂ ≈ 0.37 (e.g. CV 2 with a ~20%
    full queue).
    """
    if g_max < 1:
        raise ValueError(f"g_max must be >= 1, got {g_max}")
    q_hat = min(max(queue_length, 0) / QUEUE_CAPACITY, 1.0)
    m = g_max / (1.0 + BETA * math.exp(-GAMMA * max(cv, 0.0) * q_hat))
    return max(int(math.ceil(m)), 1)


def slo_feasible_stages(
    slo_deadline: float,
    init_time: float,
    unit_throughput: float,
    backlog: int,
) -> int:
    """Eq. 12: minimum number of expanded units meeting the SLO constraint.

        (T_j - S_j) * sum_{k<=m_j} mu_jk >= r_j

    i.e. the units brought up (each with expected throughput ``mu_jk``)
    must clear the ``backlog`` within the remaining deadline budget after
    paying initialization time ``S_j``.  Returns 0 when no expansion is
    needed; a sentinel of 10**6 when the SLO is unmeetable (init alone
    exceeds the deadline) so the caller can cap or escalate.
    """
    if backlog <= 0:
        return 0
    budget = slo_deadline - init_time
    if budget <= 0:
        return 10**6
    if unit_throughput <= 0:
        raise ValueError("unit_throughput must be positive")
    return max(int(math.ceil(backlog / (budget * unit_throughput))), 0)
