"""Erlang-B/C formulas for M/M/s replica pools.

A granularity level with M(g_k) data-parallel replicas (Eq. 5) behaves —
to first order — like an M/M/s pool, so Erlang-C gives the probability an
arriving request must queue, the mean wait, and the replica count needed
for a latency target.  Erlang-B covers the loss-system variant (admission
control that rejects rather than queues, the goodput-under-SLO view).

All formulas are computed with numerically stable recurrences, not
factorials, so they remain exact at hundreds of servers.
"""

from __future__ import annotations

import math


def _validate(arrival_rate: float, service_rate: float, servers: int) -> float:
    if arrival_rate <= 0:
        raise ValueError(f"arrival_rate must be positive, got {arrival_rate}")
    if service_rate <= 0:
        raise ValueError(f"service_rate must be positive, got {service_rate}")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    return arrival_rate / service_rate  # offered load in Erlangs


def erlang_b(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Blocking probability of an M/M/s/s loss system.

    Stable recurrence: B(0) = 1; B(k) = a*B(k-1) / (k + a*B(k-1)).
    """
    offered = _validate(arrival_rate, service_rate, servers)
    b = 1.0
    for k in range(1, servers + 1):
        b = offered * b / (k + offered * b)
    return b


def erlang_c(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Probability an arrival waits in an M/M/s queue (P(W > 0)).

    Derived from Erlang-B: C = s*B / (s - a*(1-B)); returns 1.0 for
    overloaded systems (rho >= 1), where every arrival eventually waits.
    """
    offered = _validate(arrival_rate, service_rate, servers)
    if offered >= servers:
        return 1.0
    b = erlang_b(arrival_rate, service_rate, servers)
    return servers * b / (servers - offered * (1.0 - b))


def mms_mean_wait(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Mean queueing delay of an M/M/s system (infinite if unstable)."""
    offered = _validate(arrival_rate, service_rate, servers)
    if offered >= servers:
        return float("inf")
    c = erlang_c(arrival_rate, service_rate, servers)
    return c / (servers * service_rate - arrival_rate)


def mms_wait_quantile(
    arrival_rate: float, service_rate: float, servers: int, quantile: float
) -> float:
    """The ``quantile`` of waiting time W (conditional tail is exponential).

    P(W > t) = C * exp(-(s*mu - lambda) t), so the q-quantile is
    max(0, ln(C/(1-q)) / (s*mu - lambda)).  Useful for P99-style SLO
    sizing (Fig. 10's percentile view).
    """
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    offered = _validate(arrival_rate, service_rate, servers)
    if offered >= servers:
        return float("inf")
    c = erlang_c(arrival_rate, service_rate, servers)
    slack = servers * service_rate - arrival_rate
    if c <= 1.0 - quantile:
        return 0.0
    return math.log(c / (1.0 - quantile)) / slack


def servers_for_wait(
    arrival_rate: float,
    service_rate: float,
    target_wait: float,
    max_servers: int = 4096,
) -> int:
    """Smallest replica count whose M/M/s mean wait meets the target.

    This is the Eq. 5 sizing question answered analytically; the adaptive
    scaler solves the same problem online from measured throughput.
    """
    if target_wait <= 0:
        raise ValueError("target_wait must be positive")
    base = max(int(math.ceil(arrival_rate / service_rate)), 1)
    for s in range(base, max_servers + 1):
        if mms_mean_wait(arrival_rate, service_rate, s) <= target_wait:
            return s
    raise ValueError(
        f"no server count up to {max_servers} meets wait target {target_wait}"
    )
