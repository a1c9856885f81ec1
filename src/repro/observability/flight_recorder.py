"""Fleet flight recorder: a bounded ring buffer of control-plane events.

Structured events (deploys, cache evictions with their GDSF clock state,
allocator borrows/reclaims/preemptions, refactor switches) are appended
by hooks in the control plane whenever a :class:`FlightRecorder` is
installed (``sim.recorder``, plus the cache/allocator ``recorder``
attributes for components without a simulator handle).  The buffer is a
``deque(maxlen=...)``, so its memory is bounded no matter how long the
run; the oldest events fall off the ring first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class FleetEvent:
    """One structured control-plane event."""

    seq: int  # global arrival index, unique per recorder
    time: float
    kind: str
    detail: dict = field(default_factory=dict)
    shard: int | None = None  # provenance after a sharded merge

    def retagged(self, shard: int) -> "FleetEvent":
        return replace(self, shard=shard)


class FlightRecorder:
    """Bounded event bus for fleet control-plane telemetry."""

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.events: deque[FleetEvent] = deque(maxlen=capacity)
        self.seen = 0  # every recorded event, ring-evicted ones included

    def record(self, time: float, kind: str, **detail) -> None:
        self.seen += 1
        self.events.append(FleetEvent(self.seen, time, kind, detail))

    @property
    def evicted(self) -> int:
        """Events that fell off the ring."""
        return self.seen - len(self.events)
