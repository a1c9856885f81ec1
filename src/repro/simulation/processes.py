"""Periodic and delayed process helpers on top of the event engine.

Control loops visit only the members whose inputs moved: a
:class:`VisitSet` holds the members a pass visits, and an input object
(a workload monitor, a router) calls the marks in its ``sleepers`` tuple
when it moves, so a sleeping member rejoins the set.  While nothing sleeps
on an input, a move costs one attribute read.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Iterator

from repro.simulation.engine import Event, Simulator


class PeriodicProcess:
    """Fires ``callback()`` every ``interval`` simulated seconds.

    Used for control loops (the FlexPipe optimisation interval, queue
    sampling, fragmentation churn ticks).  The first firing happens at
    ``start_delay`` (default: one interval from now).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[], Any],
        start_delay: float | None = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self._event: Event | None = None
        self._stopped = False
        delay = interval if start_delay is None else start_delay
        self._event = sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._event = self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        """Stop the process; pending tick (if any) is cancelled."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def running(self) -> bool:
        return not self._stopped


class VisitSet:
    """The members a control pass visits, visited in rank order.

    Ranks are the members' positions in their loop's fixed order.  A rank
    added during a pass joins that pass while it is still ahead of the
    member being visited, and waits for the next pass otherwise, so every
    member is visited exactly where a pass over all members would have
    reached it.
    """

    __slots__ = ("ranks", "_pass", "_cursor")

    def __init__(self, ranks=()) -> None:
        self.ranks: set[int] = set(ranks)
        self._pass: list[int] | None = None  # the running pass's order
        self._cursor = -1

    def add(self, rank: int) -> None:
        if rank not in self.ranks:
            self.ranks.add(rank)
            if self._pass is not None and rank > self._cursor:
                # Ahead of the list iterator: the pass reaches it.
                insort(self._pass, rank)

    def discard(self, rank: int) -> None:
        self.ranks.discard(rank)

    def visit(self) -> Iterator[int]:
        """One pass over the set in rank order (see the class docstring)."""
        ranks = self.ranks
        order = self._pass = sorted(ranks)
        try:
            for rank in order:
                # A rank discarded ahead of the cursor is skipped; one
                # discarded and added again is listed twice in a row.
                if rank in ranks and rank != self._cursor:
                    self._cursor = rank
                    yield rank
        finally:
            self._pass = None
            self._cursor = -1


def arm(source, mark: Callable[[], None]) -> None:
    """Have ``source`` call ``mark`` whenever it moves."""
    source.sleepers += (mark,)


def disarm(source, mark: Callable[[], None]) -> None:
    source.sleepers = tuple(m for m in source.sleepers if m is not mark)
