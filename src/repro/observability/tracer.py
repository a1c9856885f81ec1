"""Per-request causal span tracing.

A :class:`SpanTracer` installed on the simulator (``sim.tracer``) makes
every admitted request carry a :class:`RequestTrace`.  Hooks threaded
through the serving stack record raw *marks* (timestamps the runtime
already computes — no extra events are scheduled and no RNG is drawn),
and at completion the tracer assembles them into a span list that tiles
the request's latency interval ``[arrival, completion]`` **exactly** —
the ``span-conservation`` invariant the auditor asserts.

Span phases and their cause buckets:

====================  ===========  ==========================================
phase                 bucket       meaning
====================  ===========  ==========================================
``park``              cold-load    waited in the router's pending queue with
                                   no ACTIVE replica (cold start surfaces as
                                   queue time here)
``batch-formation``   queue        waited in a replica's batcher
``stage-wait``        queue        waited for a pipeline stage to go idle
``cold-gate``         cold-load    waited for a gated stage's parameter
                                   transfer (pipelined loading)
``refactor-pause``    refactor     stage wait that overlapped an in-flight
                                   refactor transition on the serving replica
``gpu-stall``         preempt      serialised behind another model's stage
                                   occupying the shared GPU
``prefill``           prefill      prefill execution seconds
``decode``            decode       decode execution seconds
``handoff``           handoff      inter-stage activation transfer
====================  ===========  ==========================================

Everything is a plain attribute read when tracing is off, so untraced
runs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.workloads.requests import Request

#: Cause buckets the attribution report decomposes tail seconds into.
BUCKETS = (
    "queue",
    "cold-load",
    "refactor",
    "preempt",
    "prefill",
    "decode",
    "handoff",
)

#: span phase -> cause bucket
PHASE_BUCKET = {
    "park": "cold-load",
    "batch-formation": "queue",
    "stage-wait": "queue",
    "cold-gate": "cold-load",
    "refactor-pause": "refactor",
    "gpu-stall": "preempt",
    "prefill": "prefill",
    "decode": "decode",
    "handoff": "handoff",
}


@dataclass(frozen=True)
class Span:
    """One contiguous, causally-labelled slice of a request's lifetime."""

    phase: str
    bucket: str
    start: float
    end: float
    stage: int = -1  # pipeline stage index; -1 = not stage-scoped
    replica: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class FinalTrace:
    """A completed request's finalized span tree (picklable, immutable).

    ``shard`` carries provenance after a PR-6 sharded run is merged;
    monolithic runs leave it ``None``.
    """

    rid: int
    model: str
    slo_class: str | None
    arrival: float
    prefill_done: float
    completion: float
    replica: str | None
    spans: tuple[Span, ...]
    shard: int | None = None

    @property
    def ttft(self) -> float:
        return self.prefill_done - self.arrival

    @property
    def latency(self) -> float:
        return self.completion - self.arrival

    def retagged(self, shard: int) -> "FinalTrace":
        return replace(self, shard=shard)


class JobMarks:
    """Raw per-stage timing marks shared by every request of one batch.

    ``stages`` holds one tuple per executed stage::

        (index, enqueued_at, started_at, gate_wait, stall, completion,
         prefill_scaled)

    where ``gate_wait`` is the slice of the stage wait spent behind a
    pipelined-loading gate, ``stall`` the GPU-serialisation delay before
    execution, ``completion`` the recorded GPU completion timestamp
    (stored verbatim so spans tile bit-exactly), and ``prefill_scaled``
    the interference-scaled prefill seconds of the stage's busy time.
    """

    __slots__ = ("jid", "replica", "dispatched_at", "stages")

    def __init__(self, jid: int, replica: str, dispatched_at: float):
        self.jid = jid
        self.replica = replica
        self.dispatched_at = dispatched_at
        self.stages: list[tuple] = []


class RequestTrace:
    """Mutable per-request mark sheet, attached as ``request.trace``."""

    __slots__ = (
        "rid",
        "model",
        "slo_class",
        "arrival",
        "parked_at",
        "unparked_at",
        "routed_at",
        "job",
    )

    def __init__(self, request: Request):
        self.rid = request.rid
        self.model = request.model
        self.slo_class = request.slo_class
        self.arrival = request.arrival_time
        self.parked_at: float | None = None
        self.unparked_at: float | None = None
        self.routed_at: float | None = None
        self.job: JobMarks | None = None


class SpanTracer:
    """Collects marks from the serving stack and finalizes span trees."""

    def __init__(self):
        self.begun = 0
        self.finalized: list[FinalTrace] = []
        # replica name -> [start, end] transition windows (end None while
        # the transition is still in flight).  Lives here — not in the
        # flight recorder — so ring-buffer eviction can never lose a
        # window the span builder still needs.
        self.refactor_windows: dict[str, list[list]] = {}

    # ------------------------------------------------------------------
    # Marks (called from the serving-stack hooks)
    # ------------------------------------------------------------------
    def begin(self, request: Request) -> RequestTrace:
        trace = RequestTrace(request)
        request.trace = trace
        self.begun += 1
        return trace

    def attach_job(self, job, replica: str, now: float) -> JobMarks:
        marks = JobMarks(job.jid, replica, now)
        job.marks = marks
        for request in job.requests:
            trace = request.trace
            if trace is not None:
                trace.job = marks
        return marks

    def refactor_begin(self, replica: str, now: float) -> None:
        self.refactor_windows.setdefault(replica, []).append([now, None])

    def refactor_end(self, replica: str, now: float) -> None:
        windows = self.refactor_windows.get(replica)
        if windows and windows[-1][1] is None:
            windows[-1][1] = now

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def complete(self, request: Request) -> FinalTrace | None:
        trace = request.trace
        if trace is None or request.completion_time is None:
            return None
        spans = self._build_spans(trace, request)
        final = FinalTrace(
            rid=trace.rid,
            model=trace.model,
            slo_class=trace.slo_class,
            arrival=request.arrival_time,
            prefill_done=request.prefill_done,
            completion=request.completion_time,
            replica=trace.job.replica if trace.job is not None else None,
            spans=tuple(spans),
        )
        self.finalized.append(final)
        return final

    def _build_spans(self, trace: RequestTrace, request: Request) -> list[Span]:
        spans: list[Span] = []
        replica = trace.job.replica if trace.job is not None else None

        def emit(phase: str, start: float, end: float, stage: int = -1) -> None:
            if end > start:
                spans.append(
                    Span(phase, PHASE_BUCKET[phase], start, end, stage, replica)
                )

        cursor = request.arrival_time
        if trace.parked_at is not None:
            unparked = (
                trace.unparked_at
                if trace.unparked_at is not None
                else request.batch_time
            )
            emit("park", cursor, unparked)
            cursor = unparked
        if request.batch_time is not None:
            emit("batch-formation", cursor, request.batch_time)
            cursor = request.batch_time
        marks = trace.job
        if marks is not None:
            windows = self.refactor_windows.get(marks.replica, ())
            for (
                index,
                enqueued_at,
                started,
                gate_wait,
                stall,
                completion,
                prefill_scaled,
            ) in marks.stages:
                # The gap between the previous stage's completion and this
                # stage's enqueue is the activation handoff.
                emit("handoff", cursor, enqueued_at, index)
                t = enqueued_at
                if gate_wait > 0.0:
                    emit("cold-gate", t, t + gate_wait, index)
                    t = t + gate_wait
                # Remaining stage wait, split against this replica's
                # refactor-transition windows.
                for seg_start, seg_end, in_refactor in _split_by_windows(
                    t, started, windows
                ):
                    emit(
                        "refactor-pause" if in_refactor else "stage-wait",
                        seg_start,
                        seg_end,
                        index,
                    )
                exec_start = started + stall
                emit("gpu-stall", started, exec_start, index)
                prefill_end = min(exec_start + prefill_scaled, completion)
                emit("prefill", exec_start, prefill_end, index)
                emit("decode", prefill_end, completion, index)
                cursor = completion
        # Any residue (a path the builder does not model) is surfaced as
        # queue time rather than silently dropped; the conservation
        # auditor still sees a fully tiled interval.
        emit("stage-wait", cursor, request.completion_time)
        return spans


def _split_by_windows(start: float, end: float, windows) -> list[tuple]:
    """Split ``[start, end]`` into ``(s, e, in_window)`` segments against
    a list of ``[w_start, w_end_or_None]`` windows (None = still open)."""
    if start >= end:
        return []
    marks: list[tuple] = []
    cursor = start
    for w_start, w_end in windows:
        w_end = end if w_end is None else w_end
        lo = max(cursor, w_start)
        hi = min(end, w_end)
        if hi <= lo:
            continue
        if lo > cursor:
            marks.append((cursor, lo, False))
        marks.append((lo, hi, True))
        cursor = hi
        if cursor >= end:
            break
    if cursor < end:
        marks.append((cursor, end, False))
    return marks
