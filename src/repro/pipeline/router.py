"""Per-model request router (the gateway updated during refactoring).

Join-the-shortest-queue across ACTIVE replicas; requests arriving while no
replica is active wait in a pending queue (this is where cold-start latency
becomes queue time).  The refactoring executor's "update gateway" step is
the ``add``/``remove`` pair here — an O(1) metadata update, which is why
switchover costs milliseconds, not seconds.

Queue signals are kept incrementally: each replica reports changes to its
``queue_length`` and ``len(batcher)`` to the router that added it while it
is ACTIVE, and the router folds them into its own running sums and into a
:class:`FleetQueue` shared by every router of one serving system.  The
invariant auditor's ``queue-ledger`` check recomputes both.
"""

from __future__ import annotations

from collections import deque

from repro.pipeline.replica import PipelineReplica
from repro.simulation.engine import Simulator
from repro.workloads.requests import Request


class FleetQueue:
    """Queue totals over every router of one serving system.

    ``pending`` counts requests parked in the routers' pending queues;
    ``queued`` and ``waiting`` are the fleet sums of the routers' running
    sums.  The fleet backlog is then an O(1) read rather than a sum over
    hundreds of routers on every admitted arrival.
    """

    __slots__ = ("pending", "queued", "waiting")

    def __init__(self) -> None:
        self.pending = 0
        self.queued = 0
        self.waiting = 0

    @property
    def total_queue(self) -> int:
        """Σ ``ModelRouter.total_queue`` over the fleet."""
        return self.pending + self.queued

    @property
    def waiting_count(self) -> int:
        """Σ ``ModelRouter.waiting_count`` over the fleet."""
        return self.pending + self.waiting


class ModelRouter:
    """Routes one model's requests over its replica set."""

    def __init__(self, sim: Simulator, model: str, fleet: FleetQueue | None = None):
        self.sim = sim
        self.model = model
        self.replicas: list[PipelineReplica] = []
        self.pending: deque[Request] = deque()
        self.submitted = 0
        self.routed = 0
        self.gateway_updates = 0
        # Running sums over accepting replicas of ``queue_length`` and of
        # ``len(batcher)``, kept exact by the replicas' deltas (``shift``).
        self.queued = 0
        self.waiting = 0
        self.fleet = fleet if fleet is not None else FleetQueue()

    # ------------------------------------------------------------------
    def add(self, replica: PipelineReplica) -> None:
        """Register an ACTIVE replica and drain any pending requests."""
        if replica not in self.replicas:
            self.replicas.append(replica)
            self.gateway_updates += 1
            if replica.router is None:
                replica.router = self
                if replica.accepting:
                    self.shift(replica.queue_length, len(replica.batcher))
        self._drain_pending()

    def remove(self, replica: PipelineReplica) -> None:
        if replica in self.replicas:
            self.replicas.remove(replica)
            self.gateway_updates += 1
            if replica.router is self:
                replica.router = None
                if replica.accepting:
                    self.shift(-replica.queue_length, -len(replica.batcher))

    def shift(self, queued: int, waiting: int) -> None:
        """Fold a change of an accepting replica's ``queue_length`` and
        ``len(batcher)`` into this router's and the fleet's sums."""
        self.queued += queued
        self.waiting += waiting
        fleet = self.fleet
        fleet.queued += queued
        fleet.waiting += waiting

    # ------------------------------------------------------------------
    def use_priority_queue(self, queue) -> None:
        """Swap the FIFO pending queue for a class-aware one (QoS).

        ``queue`` must speak the deque subset the router uses (append /
        popleft / len / iteration) — in practice a
        :class:`~repro.qos.queueing.PriorityPendingQueue`.  Requests
        already waiting migrate in arrival order, so the swap is safe
        mid-run and conservation counters are untouched.
        """
        while self.pending:
            queue.append(self.pending.popleft())
        self.pending = queue

    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        self.submitted += 1
        target = self._pick()
        if target is None:
            trace = request.trace
            if trace is not None:
                trace.parked_at = self.sim.now
            self.pending.append(request)
            self.fleet.pending += 1
            return
        self.routed += 1
        trace = request.trace
        if trace is not None:
            trace.routed_at = self.sim.now
        target.submit(request)

    def _pick(self) -> PipelineReplica | None:
        # Normalise queue depth by the replica's *effective* batch: a
        # replica deployed degraded (halved batch under fragmentation)
        # serves at a fraction of its plan's capacity and must attract
        # proportionally less load.  One scan; the strict ``<`` keeps the
        # first least-loaded replica, as ``min`` would.
        best = None
        best_load = 0.0
        for replica in self.replicas:
            if replica.accepting:
                load = replica.queue_length / max(replica.max_batch, 1)
                if best is None or load < best_load:
                    best, best_load = replica, load
        return best

    def _drain_pending(self) -> None:
        while self.pending:
            target = self._pick()
            if target is None:
                return
            self.routed += 1
            request = self.pending.popleft()
            self.fleet.pending -= 1
            trace = request.trace
            if trace is not None:
                trace.unparked_at = self.sim.now
                trace.routed_at = self.sim.now
            target.submit(request)

    # ------------------------------------------------------------------
    @property
    def total_queue(self) -> int:
        """Pending + queued across replicas (the q̂ of Eq. 11)."""
        return len(self.pending) + self.queued

    @property
    def waiting_count(self) -> int:
        """Requests not yet executing (the paper's queue-length metric).

        Excludes in-flight batches: a loaded pipeline always holds several
        batch-waves of in-service requests, which is occupancy, not
        congestion.
        """
        return len(self.pending) + self.waiting

    @property
    def active_replicas(self) -> list[PipelineReplica]:
        return [r for r in self.replicas if r.accepting]
