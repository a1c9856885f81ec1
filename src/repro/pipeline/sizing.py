"""Replica batch sizing: the one operating-batch rule and the
memory-aware degradation ladder.

Every replica — an initial deploy, a scale-out, a refactor target — serves
at its plan's max batch clipped by the system's operating batch cap, and
reserves KV for that batch.  A fragmented cluster may not offer the full
reservation; the deploy or transition then halves the batch until the
plan fits, down to :data:`DEGRADE_FLOOR`.  Capacity estimates (the
autoscaler's replica throughput, the granularity policy's rung scores)
price replicas with the same rule.
"""

from __future__ import annotations

from repro.cluster.allocator import AllocationError

# Smallest batch memory-aware degradation will fall back to before giving
# up: deployment and inflight refactoring share this policy, so a degraded
# replica's effective batch never depends on which path created its chain.
DEGRADE_FLOOR = 8


def operating_batch(plan, batch_cap: int | None, batch: int | None = None) -> int:
    """``batch`` (by default ``plan``'s max batch) under ``batch_cap``.

    ``None`` means no cap: the plan's max batch.  Callers that size a real
    batch take :func:`full_batch`, which never goes below 1."""
    cap = batch_cap or plan.max_batch
    return min(plan.max_batch if batch is None else batch, cap)


def full_batch(plan, batch_cap: int | None) -> int:
    """The batch a deploy or transition starts :func:`degrade_until_fit`
    from: the operating batch, at least 1."""
    return max(operating_batch(plan, batch_cap), 1)


def degrade_until_fit(batch, attempt, *, floor: int = DEGRADE_FLOOR):
    """Run ``attempt(batch)``, halving the batch on :class:`AllocationError`
    until it fits; at the floor the error propagates.  Returns
    ``(batch, result)`` with the batch that actually fit."""
    while True:
        try:
            return batch, attempt(batch)
        except AllocationError:
            if batch <= floor:
                raise
            batch //= 2


def floor_footprint(plan, batch_cap: int | None, kv_bytes_per_request: float) -> float:
    """Bytes of ``plan`` at the degradation floor: the smallest footprint
    :func:`degrade_until_fit` accepts when it starts from
    :func:`full_batch`."""
    floor = max(min(full_batch(plan, batch_cap), DEGRADE_FLOOR), 1)
    return sum(plan.memory_per_stage(floor, kv_bytes_per_request))
