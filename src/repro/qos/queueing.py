"""The class-priority queue of the request path.

:class:`PriorityPendingQueue` is the one owner of class-priority pop
order: strict priority across SLO classes, FIFO within a class, with an
optional *aging* knob for anti-starvation — a request's effective
priority improves by one rank per ``aging`` seconds waited, so a batch
backlog eventually drains even under sustained interactive pressure
(``aging=None`` is pure strict priority).

Under QoS it replaces the FIFO ``deque`` in two places: a
:class:`~repro.pipeline.router.ModelRouter`'s pending queue and a
:class:`~repro.pipeline.batching.DynamicBatcher`'s batch queue, so
mixed-class traffic on one model meets FIFO nowhere between admission
and the GPU.  Both install it by migrating their waiting requests in
arrival order; the batcher passes each request's original enqueue time,
so its accumulation window (:meth:`oldest`) is unchanged by the swap.

The queue preserves its owners' invariants: ``len`` counts every waiting
request (the auditor's residency term), iteration yields every request,
and with a single class present pop order is exactly FIFO — so installing
the queue on an unclassed tenant changes nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator

from repro.workloads.requests import Request


class PriorityPendingQueue:
    """Strict-priority buckets with FIFO order inside each bucket."""

    def __init__(
        self,
        clock: Callable[[], float],
        priority_of: Callable[[Request], int],
        *,
        aging: float | None = None,
    ):
        if aging is not None and aging <= 0:
            raise ValueError(f"aging must be positive (or None), got {aging}")
        self._clock = clock
        self._priority_of = priority_of
        self.aging = aging
        self._buckets: dict[int, deque[tuple[int, float, Request]]] = {}
        self._seq = 0
        self._len = 0

    # ------------------------------------------------------------------
    def append(self, request: Request, enqueued_at: float | None = None) -> None:
        """Queue ``request``, stamped ``enqueued_at`` (default: now)."""
        priority = int(self._priority_of(request))
        bucket = self._buckets.get(priority)
        if bucket is None:
            bucket = self._buckets[priority] = deque()
        if enqueued_at is None:
            enqueued_at = self._clock()
        bucket.append((self._seq, enqueued_at, request))
        self._seq += 1
        self._len += 1

    def popleft(self) -> Request:
        if not self._len:
            raise IndexError("pop from an empty PriorityPendingQueue")
        now = self._clock()
        best_key: tuple[int, int] | None = None
        best_priority = 0
        for priority in sorted(self._buckets):
            bucket = self._buckets[priority]
            if not bucket:
                continue
            seq, enqueued, _ = bucket[0]
            effective = priority
            if self.aging is not None:
                effective -= int((now - enqueued) / self.aging)
            key = (effective, seq)
            if best_key is None or key < best_key:
                best_key, best_priority = key, priority
        _, _, request = self._buckets[best_priority].popleft()
        self._len -= 1
        return request

    def oldest(self) -> float | None:
        """The earliest enqueue stamp still queued (None when empty)."""
        # Buckets are FIFO, so each head is its class's oldest entrant.
        heads = [bucket[0][1] for bucket in self._buckets.values() if bucket]
        return min(heads) if heads else None

    def entries(self) -> list[tuple[Request, float]]:
        """Queued (request, enqueue-time) pairs in arrival order."""
        rows = sorted(
            (seq, enqueued, request)
            for bucket in self._buckets.values()
            for seq, enqueued, request in bucket
        )
        return [(request, enqueued) for _, enqueued, request in rows]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[Request]:
        for priority in sorted(self._buckets):
            for _, _, request in self._buckets[priority]:
                yield request

    def clear(self) -> None:
        self._buckets.clear()
        self._len = 0
