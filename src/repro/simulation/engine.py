"""Minimal, fast discrete-event simulation engine.

The engine is deliberately callback-based (no generator coroutines): the
serving systems in this repository schedule hundreds of thousands of events
per run, and plain heapq scheduling keeps the hot loop allocation-light.

Determinism guarantees:

* events fire in non-decreasing timestamp order;
* events scheduled for the same timestamp fire in scheduling (FIFO) order;
* cancelled events are skipped without side effects.

The heap holds ``(time, seq, event)`` tuples: ``seq`` is unique, so
``heapq`` orders entries by ``(time, seq)`` with C tuple comparisons and
never reaches the :class:`Event` handle itself.

Bookkeeping is O(1): the simulator maintains a live-event counter so
``pending_count`` / ``run_until_idle`` never scan the heap, and cancelled
events are compacted out of the heap once they dominate it, keeping both
push costs and memory proportional to the *live* event population even
under cancel-heavy workloads (batch timers, scale-in watchdogs).
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable

# Compact the heap when it holds more than this many cancelled entries and
# they outnumber the live ones; small heaps are never worth rebuilding.
_COMPACT_MIN_DEAD = 64


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulator.schedule` /
    :meth:`Simulator.schedule_at`; user code only holds them to optionally
    :meth:`cancel` them.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim: "Simulator | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            # Still queued: keep the simulator's live/dead counts exact.
            sim._on_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Discrete-event simulator with a monotonically advancing clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, handler, arg1, arg2)
        sim.run(until=100.0)
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._live = 0  # non-cancelled events currently in the heap
        self._dead = 0  # cancelled events awaiting compaction or pop
        self.events_processed = 0
        # Observability taps (repro.observability): a SpanTracer /
        # FlightRecorder installed here arms the hooks threaded through
        # the serving stack.  Both None (the default) keeps every hook a
        # single attribute read — untraced runs are byte-identical.
        self.tracer = None
        self.recorder = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not 0.0 <= delay < math.inf:  # one test on the hot path
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            raise SimulationError(f"invalid delay: {delay}")
        # Every entry point goes through schedule_at: tests audit the
        # program after each event by wrapping this one seam.
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, args)
        event._sim = self
        heappush(self._queue, (time, seq, event))
        self._live += 1
        return event

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """A queued event was cancelled: update counters, maybe compact."""
        self._live -= 1
        self._dead += 1
        if self._dead > _COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Heapify preserves the fire order because the ``(time, seq)`` key
        is a total order — determinism is unaffected.  The list is rebuilt
        in place: :meth:`run` holds a reference to it.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2].cancelled]
        heapify(queue)
        self._dead = 0

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events fired by
        this call.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, so utilization denominators stay
        consistent across runs.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        queue = self._queue
        horizon = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        fired = 0
        try:
            while queue and not self._stopped:
                time, seq, event = heappop(queue)
                if event.cancelled:
                    self._dead -= 1
                    continue
                if time > horizon:
                    heappush(queue, (time, seq, event))  # not due: put back
                    break
                self._live -= 1
                event._sim = None
                self._now = time
                event.callback(*event.args)
                fired += 1
                if fired >= limit:
                    break
        finally:
            self._running = False
            self.events_processed += fired
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return fired

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain the queue completely (with a runaway-loop backstop)."""
        self.run(max_events=max_events)
        if self._live and not self._stopped:
            raise SimulationError(
                f"run_until_idle exceeded {max_events} events with "
                f"{self._live} still pending"
            )

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live
