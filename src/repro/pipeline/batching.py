"""Dynamic batching (the paper builds on Orca-style dynamic batching, §7).

Policy: requests accumulate for up to ``max_wait`` (the iteration-scheduling
window of continuous-batching systems) or until the granularity's batch
capacity is reached; a batch dispatches when the entry stage is free.  The
window is what amortises the per-iteration weight-streaming cost across
requests — dispatching singletons eagerly would cap throughput at the
batch-1 iteration rate.

The queue is a FIFO ``deque`` with a parallel deque of enqueue times.
Under QoS, :meth:`DynamicBatcher.use_priority_queue` swaps in a
:class:`~repro.qos.queueing.PriorityPendingQueue` (the router's pending
queue class): the window and dispatch policy are unchanged, but each
batch is *formed* in strict SLO class-priority order, FIFO within a
class, with optional aging.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.qos.queueing import PriorityPendingQueue
from repro.simulation.engine import Event, Simulator
from repro.workloads.requests import Request


@dataclass(frozen=True)
class BatcherConfig:
    max_batch: int = 128
    max_wait: float = 0.3  # accumulation window before dispatch

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")


class DynamicBatcher:
    """Accumulates requests and emits batches to a dispatch callback.

    ``can_dispatch`` tells the batcher whether the pipeline entry stage can
    accept a batch right now; ``dispatch`` consumes a list of requests.
    The owner must call :meth:`pump` whenever the entry stage frees up.

    ``queue`` holds the waiting requests: a ``deque`` whose enqueue times
    sit in ``_enqueued_at``, or, once :meth:`use_priority_queue` ran, a
    :class:`~repro.qos.queueing.PriorityPendingQueue` that stamps them
    itself (``_enqueued_at`` is then None).
    """

    def __init__(
        self,
        sim: Simulator,
        config: BatcherConfig,
        can_dispatch: Callable[[], bool],
        dispatch: Callable[[list[Request]], None],
    ):
        self.sim = sim
        self.config = config
        self.can_dispatch = can_dispatch
        self.dispatch = dispatch
        self.queue: deque[Request] | PriorityPendingQueue = deque()
        self._enqueued_at: deque[float] | None = deque()
        self._timer: Event | None = None
        self.batches_formed = 0
        self.requests_batched = 0

    def __len__(self) -> int:
        return len(self.queue)

    def use_priority_queue(self, queue: PriorityPendingQueue) -> None:
        """Form batches in ``queue``'s class-priority order from now on.

        Queued requests migrate in arrival order with their original
        enqueue times, so the ``max_wait`` window and every counter the
        auditor reads (queue length, batches formed) are unchanged; only
        the order future batches pull requests in differs.
        """
        for request, enqueued_at in self.entries():
            queue.append(request, enqueued_at)
        self._disarm_timer()
        self.queue = queue
        self._enqueued_at = None
        if len(queue):
            self._arm_timer()

    def entries(self) -> list[tuple[Request, float]]:
        """Queued (request, enqueue-time) pairs in arrival order."""
        if self._enqueued_at is None:
            return self.queue.entries()
        return list(zip(self.queue, self._enqueued_at))

    def _pop_batch(self, n: int) -> list[Request]:
        popleft = self.queue.popleft
        batch = [popleft() for _ in range(n)]
        stamps = self._enqueued_at
        if stamps is not None:
            for _ in range(n):
                stamps.popleft()
        return batch

    def _oldest_time(self) -> float | None:
        stamps = self._enqueued_at
        if stamps is None:
            return self.queue.oldest()
        return stamps[0] if stamps else None

    # ------------------------------------------------------------------
    def enqueue(self, request: Request) -> None:
        self.queue.append(request)
        if self._enqueued_at is not None:
            self._enqueued_at.append(self.sim.now)
        if len(self) >= self.config.max_batch and self.can_dispatch():
            self._emit()
        elif self._timer is None:
            self._arm_timer()

    def pump(self) -> None:
        """Called when the entry stage frees up: dispatch ripe batches."""
        if not len(self) or not self.can_dispatch():
            return
        if len(self) >= self.config.max_batch or self._oldest_ripe():
            self._emit()

    def flush(self) -> list[Request]:
        """Drain without dispatching (used when a replica is torn down)."""
        out = self._pop_batch(len(self))
        self._disarm_timer()
        return out

    # ------------------------------------------------------------------
    def _oldest_ripe(self) -> bool:
        oldest = self._oldest_time()
        if oldest is None:
            return False
        return self.sim.now - oldest >= self.config.max_wait

    def _emit(self) -> None:
        self._disarm_timer()
        n = min(len(self), self.config.max_batch)
        batch = self._pop_batch(n)
        self.batches_formed += 1
        self.requests_batched += n
        self.dispatch(batch)
        if len(self):
            self._arm_timer()

    def _arm_timer(self) -> None:
        self._disarm_timer()
        delay = self.config.max_wait
        oldest = self._oldest_time()
        if oldest is not None:
            # Fire when the oldest queued request's window closes.
            delay = max(self.config.max_wait - (self.sim.now - oldest), 0.0)
        self._timer = self.sim.schedule(delay, self._timeout)

    def _disarm_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _timeout(self) -> None:
        self._timer = None
        if not len(self):
            return
        if self.can_dispatch():
            self._emit()
        else:
            # Entry stage busy: it will pump() on completion; keep a
            # heartbeat so the wait bound survives pathological schedules.
            self._timer = self.sim.schedule(self.config.max_wait, self._timeout)

    @property
    def mean_batch_size(self) -> float:
        if self.batches_formed == 0:
            return 0.0
        return self.requests_batched / self.batches_formed
