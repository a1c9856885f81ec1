"""A pipeline stage executing on one (possibly shared) GPU."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.allocator import StageReservation
from repro.cluster.gpu import GPU
from repro.partitioning.plan import StagePlan
from repro.simulation.engine import Simulator


@dataclass(slots=True)
class BatchJob:
    """One batch travelling through the pipeline.

    Per-stage timings are precomputed at batch formation (the cost model is
    deterministic given the batch composition); interference multipliers
    are applied at execution time from the live GPU state.
    """

    jid: int
    requests: list
    stage_busy: list[float]  # GPU-busy seconds per stage
    stage_prefill: list[float]  # prefill part of stage_busy (for prefill_done)
    handoff: list[float]  # comm latency after each stage (len = stages-1)
    created_at: float
    exec_start: float | None = None
    stage_started: list[float] = field(default_factory=list)
    exec_time: float = 0.0
    comm_time: float = 0.0
    # The stage chain this job executes on; pinned at dispatch so in-flight
    # jobs finish on their original chain across inflight reconfigurations.
    stages: list = field(default_factory=list)
    # Observability: per-stage timing marks shared by the batch's requests
    # (a repro.observability.tracer.JobMarks); None unless tracing is on.
    marks: object | None = None

    @property
    def batch_size(self) -> int:
        return len(self.requests)


class StageRuntime:
    """Executes jobs FIFO on its GPU; downstream hand-off via callback.

    The GPU may be shared with stages of *other* models (MuxServe-style
    multiplexing, or Eq. 6 consolidation); ``interference`` scales busy time
    by the live multiplexing penalty (Eq. 9).
    """

    def __init__(
        self,
        sim: Simulator,
        index: int,
        plan: StagePlan,
        reservation: StageReservation,
        on_done: Callable[[BatchJob, int], None],
        interference: Callable[[GPU], float] | None = None,
    ):
        self.sim = sim
        self.index = index
        self.plan = plan
        self.reservation = reservation
        self.on_done = on_done
        self.interference = interference or (lambda gpu: 1.0)
        # Each entry is (job, enqueue_time): FIFO order makes a side table
        # of enqueue timestamps redundant, and skipping the per-job dict
        # insert/pop keeps this per-event path allocation-free.
        self.queue: deque[tuple[BatchJob, float]] = deque()
        self.busy = False
        self.inflight = 0  # jobs enqueued or executing here (for retirement)
        self.retired = False
        self.jobs_executed = 0
        self.busy_seconds = 0.0
        self.stall_seconds = 0.0  # time jobs waited here with work pending
        # Pipelined loading (PipeBoost-style): a gated stage holds its queue
        # until its parameter transfer completes, so a replica can serve
        # from its first loaded stages while later ones still load.  The
        # audit trail (was_gated / loaded_at / load_marks /
        # first_started_at) backs the `partial-activation` invariant.
        self.loaded = True
        self.was_gated = False
        self.loaded_at: float | None = None
        self.load_marks = 0
        self.first_started_at: float | None = None
        # Whether parameters actually landed on the GPU (False while a
        # deploy's transfers are in flight; gates cache-on-release).
        self.params_resident = True

    @property
    def gpu(self) -> GPU:
        return self.reservation.gpu

    @property
    def idle(self) -> bool:
        return not self.busy and not self.queue

    def enqueue(self, job: BatchJob) -> None:
        # Retired stages still serve jobs pinned to their chain before the
        # reconfiguration; only *new* batches are barred (the replica
        # dispatches those onto the new chain).
        self.inflight += 1
        self.queue.append((job, self.sim.now))
        if not self.busy:
            self._start_next()

    # ------------------------------------------------------------------
    def gate_load(self) -> None:
        """Bar execution until :meth:`mark_loaded`; jobs queue meanwhile."""
        self.loaded = False
        self.was_gated = True
        self.params_resident = False

    def mark_loaded(self) -> None:
        """Parameter transfer complete: open the gate and drain the queue."""
        self.load_marks += 1
        self.params_resident = True
        if not self.loaded:
            self.loaded = True
            self.loaded_at = self.sim.now
            if self.queue and not self.busy:
                self._start_next()

    def _start_next(self) -> None:
        if not self.queue or not self.loaded:
            return
        job, enqueued_at = self.queue.popleft()
        self.busy = True
        now = self.sim.now
        gpu = self.gpu
        if self.first_started_at is None:
            self.first_started_at = now
        if self.index > 0:
            self.stall_seconds += now - enqueued_at
        busy = job.stage_busy[self.index]
        duration = busy * self.interference(gpu)
        job.stage_started.append(now)
        if job.exec_start is None:
            job.exec_start = now
        job.exec_time += duration
        # Serialise on the GPU: other models' stages may also occupy it.
        completion = gpu.occupy(now, duration)
        self.busy_seconds += duration
        marks = job.marks
        if marks is not None:
            # Raw span marks: the completion timestamp is stored verbatim
            # (not re-derived from start + stall + duration) so the span
            # builder tiles the latency interval bit-exactly.
            gate_wait = 0.0
            if self.was_gated and self.loaded_at is not None:
                gate_wait = max(0.0, self.loaded_at - enqueued_at)
            prefill_scaled = (
                duration * (job.stage_prefill[self.index] / busy)
                if busy > 0.0
                else 0.0
            )
            marks.stages.append(
                (
                    self.index,
                    enqueued_at,
                    now,
                    gate_wait,
                    completion - now - duration,
                    completion,
                    prefill_scaled,
                )
            )
        self.sim.schedule(completion - now, self._complete, job)

    def _complete(self, job: BatchJob) -> None:
        self.busy = False
        self.inflight -= 1
        self.jobs_executed += 1
        self.on_done(job, self.index)
        if self.queue:
            self._start_next()
