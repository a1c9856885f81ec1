"""Fair-share (processor-sharing) link model with per-stream rate caps.

A :class:`FairShareLink` divides its aggregate bandwidth ``B`` among the
``n`` in-flight transfers, but any transfer may additionally be capped at
a per-stream rate (e.g. checkpoint loads are bottlenecked by the loader's
ingest path long before the storage backend saturates).  The rate rule is
two-pass: a stream is *capped* iff its cap is below the equal share
``B/n``; capped streams run at their cap, and the leftover
``fair = (B - Σ capped caps) / #uncapped`` goes to every other stream,
each still bounded by its own cap (``rate = min(cap, fair)``).  When every
stream is capped, each runs at its cap.  Rates are floored at 1e-9.
Completion times rescale whenever a transfer starts or finishes — the
standard fluid model of TCP/RDMA sharing, which makes parallel scale-ups
genuinely contend (the effect the HRG coordinates).

The rule is evaluated lazily, so a start or finish costs O(log n) plus the
streams whose class actually changes, not O(n):

* the caps sit in one sorted list; the capped streams are a prefix of it
  (``cap < B/n``) and the *own-paced* streams a longer prefix (``cap <=
  fair``, or everything when all are capped), so both boundaries are a
  ``bisect`` away and an event moves only the streams between the old and
  the new boundary;
* an own-paced stream runs at its fixed cap, so it holds ``(R0, t0,
  rate)`` and a fixed finish time in one heap;
* the *fair-paced* streams (no cap, or ``cap > fair``) all run at
  ``fair``, so they share a GPS virtual clock ``V(t) = ∫ fair dt``: a
  stream joining the group with ``R`` bytes left is keyed ``V + R`` in a
  second heap, and its remaining bytes are ``key - V``;
* heap entries of streams that left a group expire by a version counter;
  ties go to the earlier join, as in a join-ordered scan.

Float rounding differs from an eager per-stream recompute, so completion
times agree with it within 1e-9 relative, not bit for bit.  Reading a
handle's ``remaining`` or ``rate``, :meth:`FairShareLink.estimate_time` or
``active_count`` never changes the link's state.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

from repro.simulation.engine import Event, Simulator

GB = 1024**3
MB = 1024**2
# Every server's two data links (paper testbed, A100 nodes): PCIe gen4 x16
# host-to-GPU and a 100 Gbps NIC.  The cost model, the Eq. 2 partitioner
# and the data mover plan against the links the servers then serve on.
PCIE_BANDWIDTH = 24.0 * GB
NIC_BANDWIDTH = 12.5 * GB

_MIN_RATE = 1e-9  # rates stay positive for the completion math
_COMPACT_MIN = 64  # heaps smaller than this are never worth rebuilding


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters.

    ``bandwidth`` is the aggregate bytes/second; ``latency`` is the one-way
    protocol latency applied once per transfer.
    """

    name: str
    bandwidth: float
    latency: float = 0.0

    def serial_time(self, nbytes: float) -> float:
        """Uncontended transfer time for ``nbytes`` (no per-stream cap)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.latency + nbytes / self.bandwidth


class TransferHandle:
    """An in-flight transfer on a :class:`FairShareLink`.

    ``remaining`` and ``rate`` are computed from the link's state at the
    current simulated time; reading them changes nothing.
    """

    __slots__ = (
        "nbytes",
        "callback",
        "max_rate",
        "done",
        "started_at",
        "finished_at",
        # Link bookkeeping: join order, group, version of the live heap
        # entry, and the own-paced (R0, t0, rate) or the fair-paced key.
        "_link",
        "_seq",
        "_own",
        "_ver",
        "_r0",
        "_t0",
        "_rate",
        "_key",
    )

    def __init__(
        self,
        nbytes: float,
        callback: Callable[[], None] | None,
        max_rate: float | None,
    ):
        self.nbytes = float(nbytes)
        self.callback = callback
        self.max_rate = max_rate
        self.done = False
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._link: FairShareLink | None = None
        self._seq = 0
        self._own = False
        self._ver = 0
        self._r0 = self._t0 = self._rate = self._key = 0.0

    @property
    def remaining(self) -> float:
        """Bytes left (protocol-latency bytes included) at the current time."""
        if self.done:
            return 0.0
        link = self._link
        if link is None:
            return self.nbytes
        now = link.sim.now
        if self._own:
            return max(self._r0 - self._rate * (now - self._t0), 0.0)
        return max(self._key - link.virtual_time(now), 0.0)

    @property
    def rate(self) -> float:
        """Current rate in bytes/s (0.0 when not in flight)."""
        if self.done or self._link is None:
            return 0.0
        return self._rate if self._own else self._link._fair_rate

    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at


class FairShareLink:
    """A shared link with two-pass fair-share allocation, kept lazily."""

    def __init__(self, sim: Simulator, spec: LinkSpec):
        if spec.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {spec.bandwidth}")
        self.sim = sim
        self.spec = spec
        self._streams: dict[int, TransferHandle] = {}  # in flight, join order
        self._seq = 0
        # Capped streams as (cap, seq, handle), sorted; the first ``_k``
        # have cap < B/n and the first ``_j`` are own-paced.
        self._caps: list[tuple[float, int, TransferHandle]] = []
        self._k = 0
        self._j = 0
        # Σ of the first ``_k`` caps, with its rounding error carried
        # separately (two-sum) so add/remove churn never drifts ``fair``.
        self._used = 0.0
        self._used_err = 0.0
        self._fair_rate = _MIN_RATE  # floored rate of the fair-paced group
        self._own_heap: list[tuple[float, int, int, TransferHandle]] = []
        self._fair_heap: list[tuple[float, int, int, TransferHandle]] = []
        self._own_rate = 0.0  # Σ rate over own-paced streams
        self._vtime = 0.0  # V at ``_last_update``
        self._last_update = sim.now
        self._next_completion: Event | None = None
        self.bytes_moved = 0.0
        self.transfers_completed = 0

    @property
    def active_count(self) -> int:
        return len(self._streams)

    def virtual_time(self, now: float) -> float:
        """The fair-paced group's clock ``V`` at ``now`` (a pure read)."""
        if len(self._streams) == self._j:  # no fair-paced stream: V stands
            return self._vtime
        return self._vtime + self._fair_rate * (now - self._last_update)

    def in_flight(self) -> list[TransferHandle]:
        """The in-flight transfers, in join order."""
        return list(self._streams.values())

    def stream_class(self, handle: TransferHandle) -> str:
        """``"capped"`` (cap < B/n), ``"own"`` (runs at its cap) or
        ``"fair"`` (runs at the fair share) for an in-flight ``handle``."""
        if not handle._own:
            return "fair"
        idx = bisect_left(self._caps, (handle.max_rate, handle._seq))
        return "capped" if idx < self._k else "own"

    # ------------------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        callback: Callable[[], None] | None = None,
        *,
        max_rate: float | None = None,
    ) -> TransferHandle:
        """Start a transfer; ``callback`` fires when it completes.

        ``max_rate`` caps this stream's share (bytes/s).  Zero-byte
        transfers still pay the link latency (metadata exchange).
        """
        if max_rate is not None and max_rate <= 0:
            raise ValueError(f"max_rate must be positive, got {max_rate}")
        handle = TransferHandle(nbytes, callback, max_rate)
        now = self.sim.now
        handle.started_at = now
        if nbytes <= 0:
            self.sim.schedule(self.spec.latency, self._finish_instant, handle)
            return handle
        self._advance(now)
        # Account the protocol latency by front-loading equivalent bytes at
        # this stream's own maximum rate (monotone under contention).
        lat_rate = min(max_rate or self.spec.bandwidth, self.spec.bandwidth)
        remaining = nbytes + self.spec.latency * lat_rate
        seq = self._seq
        self._seq = seq + 1
        handle._link = self
        handle._seq = seq
        self._streams[seq] = handle
        own = False
        if max_rate is not None:
            caps = self._caps
            entry = (max_rate, seq, handle)
            pos = bisect_right(caps, entry)
            caps.insert(pos, entry)
            if pos < self._k:
                self._k += 1
                self._add_used(max_rate)
            if pos < self._j:
                self._j += 1
                own = True
        if own:
            self._join_own(handle, remaining, now)
        else:
            self._join_fair(handle, remaining)
        self._rebalance(now)
        self._reschedule()
        return handle

    def estimate_time(self, nbytes: float, max_rate: float | None = None) -> float:
        """Expected time for a new transfer given current contention."""
        share = self.spec.bandwidth / (len(self._streams) + 1)
        rate = min(max_rate or self.spec.bandwidth, max(share, 1e-9))
        return self.spec.latency + nbytes / rate

    # ------------------------------------------------------------------
    def _finish_instant(self, handle: TransferHandle) -> None:
        handle.done = True
        handle.finished_at = self.sim.now
        self.transfers_completed += 1
        if handle.callback is not None:
            handle.callback()

    def _advance(self, now: float) -> None:
        """Move ``bytes_moved`` and ``V`` to ``now`` at the held rates."""
        elapsed = now - self._last_update
        if elapsed > 0:
            n_fair = len(self._streams) - self._j
            self.bytes_moved += (self._own_rate + n_fair * self._fair_rate) * elapsed
            if n_fair:
                self._vtime += self._fair_rate * elapsed
        self._last_update = now

    def _add_used(self, cap: float) -> None:
        used = self._used
        total = used + cap
        back = total - used
        self._used_err += (used - (total - back)) + (cap - back)
        self._used = total

    def _join_own(self, handle: TransferHandle, remaining: float, now: float) -> None:
        rate = max(handle.max_rate, _MIN_RATE)
        handle._own = True
        handle._ver += 1
        handle._r0, handle._t0, handle._rate = remaining, now, rate
        self._own_rate += rate
        heapq.heappush(
            self._own_heap, (now + remaining / rate, handle._seq, handle._ver, handle)
        )

    def _join_fair(self, handle: TransferHandle, remaining: float) -> None:
        handle._own = False
        handle._ver += 1
        handle._key = key = self._vtime + remaining
        heapq.heappush(self._fair_heap, (key, handle._seq, handle._ver, handle))

    def _rebalance(self, now: float) -> None:
        """Move both class boundaries to the current ``n`` and ``fair``,
        re-homing only the streams that cross them (``V`` is at ``now``)."""
        n = len(self._streams)
        caps = self._caps
        if n == 0:
            self._k = self._j = 0
            self._used = self._used_err = self._own_rate = 0.0
            self._fair_rate = _MIN_RATE
            self._vtime = 0.0
            self._own_heap.clear()
            self._fair_heap.clear()
            return
        bandwidth = self.spec.bandwidth
        k_old = self._k
        k = bisect_left(caps, (bandwidth / n,))
        if k > k_old:
            for i in range(k_old, k):
                self._add_used(caps[i][0])
        elif k < k_old:
            for i in range(k, k_old):
                self._add_used(-caps[i][0])
        if k == 0:
            self._used = self._used_err = 0.0
        self._k = k
        if k == n:  # every stream capped below the equal share
            fair = 0.0
            j = n
        else:
            used = self._used + self._used_err
            fair = max(bandwidth - used, 0.0) / (n - k)
            j = max(k, bisect_right(caps, (fair, math.inf)))
        j_old = self._j
        if j > j_old:
            vtime = self._vtime
            for i in range(j_old, j):
                handle = caps[i][2]
                self._join_own(handle, max(handle._key - vtime, 0.0), now)
        elif j < j_old:
            for i in range(j, j_old):
                handle = caps[i][2]
                self._own_rate -= handle._rate
                self._join_fair(
                    handle, max(handle._r0 - handle._rate * (now - handle._t0), 0.0)
                )
        self._j = j
        if j == 0:
            self._own_rate = 0.0
        self._fair_rate = max(fair, _MIN_RATE)
        if j == n:  # the fair group emptied: restart its clock
            self._vtime = 0.0
            self._fair_heap.clear()
        self._compact()

    def _compact(self) -> None:
        """Rebuild a heap once its expired entries dominate it."""
        own_heap = self._own_heap
        if len(own_heap) > _COMPACT_MIN and len(own_heap) > 2 * self._j:
            own_heap[:] = [e for e in own_heap if e[3]._ver == e[2]]
            heapq.heapify(own_heap)
        fair_heap = self._fair_heap
        n_fair = len(self._streams) - self._j
        if len(fair_heap) > _COMPACT_MIN and len(fair_heap) > 2 * n_fair:
            fair_heap[:] = [e for e in fair_heap if e[3]._ver == e[2]]
            heapq.heapify(fair_heap)

    @staticmethod
    def _live_top(heap):
        while heap:
            top = heap[0]
            if top[3]._ver == top[2]:
                return top
            heapq.heappop(heap)
        return None

    def _reschedule(self) -> None:
        if self._next_completion is not None:
            self._next_completion.cancel()
            self._next_completion = None
        if not self._streams:
            return
        now = self.sim.now
        own = self._live_top(self._own_heap)
        fair = self._live_top(self._fair_heap)
        if fair is not None:
            at = now + max(fair[0] - self._vtime, 0.0) / self._fair_rate
            if own is not None and (own[0], own[1]) < (at, fair[1]):
                at, soonest = own[0], own[3]
            else:
                soonest = fair[3]
        else:
            at, soonest = own[0], own[3]
        if math.isnan(at) or math.isinf(at):
            raise RuntimeError(f"invalid completion time on {self.spec.name}")
        self._next_completion = self.sim.schedule_at(
            max(at, now), self._complete, soonest
        )

    def _complete(self, handle: TransferHandle) -> None:
        now = self.sim.now
        self._advance(now)
        del self._streams[handle._seq]
        if handle._own:
            self._own_rate -= handle._rate
        if handle.max_rate is not None:
            caps = self._caps
            idx = bisect_left(caps, (handle.max_rate, handle._seq))
            del caps[idx]
            if idx < self._k:
                self._k -= 1
                self._add_used(-handle.max_rate)
            if idx < self._j:
                self._j -= 1
        handle._ver += 1  # expire its heap entry
        handle.done = True
        handle.finished_at = now
        self.transfers_completed += 1
        self._rebalance(now)
        self._reschedule()
        if handle.callback is not None:
            handle.callback()
