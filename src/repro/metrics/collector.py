"""Per-run metric collection shared by all serving systems."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.metrics.latency import LatencyBreakdown, percentiles
from repro.metrics.stalls import detect_stalls, recovery_times
from repro.workloads.requests import Request


@dataclass
class ScalingEvent:
    time: float
    kind: str  # "scale_out" | "scale_in" | "refactor"
    detail: str = ""
    wait_time: float = 0.0  # allocation wait
    init_time: float = 0.0  # load/transition duration
    warm: bool = False


@dataclass
class RunSummary:
    """Final numbers for one (system, workload) run."""

    system: str
    duration: float
    offered: int
    completed: int
    goodput: int
    goodput_rate: float
    breakdown: LatencyBreakdown
    latency_percentiles: dict[int, float]
    mean_latency: float
    mean_prefill_latency: float
    gpu_utilization: float
    gpus_used: int
    mean_queue_length: float
    p95_queue_length: float
    stall_cycle: float
    median_recovery: float
    refactor_count: int
    scale_out_count: int
    warm_start_rate: float
    mean_init_time: float
    mean_alloc_wait: float
    # Time-to-first-token tail (prefill latency includes any deploy/queue
    # wait, so cold starts land here) — the cold-start economy headline.
    p99_ttft: float = 0.0
    # --- QoS (filled by multi-tenant drivers; defaults = unclassed) ---
    slo_class: str = ""  # the tenant's SLO class name, "" when unclassed
    shed: int = 0  # admission sheds charged to this tenant
    # Goodput over *everything offered* (sheds count as misses); the
    # plain goodput_rate above is goodput over admitted work only.
    slo_attainment: float = 0.0
    # Arbitration / elastic-contract traffic for this tenant (zeros when
    # the control plane or elastic contracts are off).
    preemptions_won: int = 0
    preemptions_lost: int = 0
    borrows: int = 0
    reclaims: int = 0


@dataclass
class Populations:
    """One run's measured-epoch populations: everything a
    :class:`RunSummary` is computed from except the GPU accounting.

    Sharded runs ship each shard's populations to the merge, which
    concatenates them (:meth:`merge`) and summarises the result exactly
    as a monolithic run summarises its own.
    """

    offered: int = 0
    goodput: int = 0
    latencies: list[float] = field(default_factory=list)
    queue: list[float] = field(default_factory=list)
    execution: list[float] = field(default_factory=list)
    comm: list[float] = field(default_factory=list)
    prefill: list[float] = field(default_factory=list)
    qlens: list[int] = field(default_factory=list)
    recoveries: list[float] = field(default_factory=list)
    # One entry per measured scale-out.
    init_times: list[float] = field(default_factory=list)
    wait_times: list[float] = field(default_factory=list)
    warm_starts: int = 0
    refactor_count: int = 0

    @classmethod
    def merge(cls, parts: list["Populations"]) -> "Populations":
        """Concatenate populations and sum counts, in ``parts`` order."""
        merged = cls()
        for part in parts:
            for f in fields(cls):
                value = getattr(part, f.name)
                if isinstance(value, list):
                    getattr(merged, f.name).extend(value)
                else:
                    setattr(merged, f.name, getattr(merged, f.name) + value)
        return merged


class MetricsCollector:
    """Accumulates request records, queue samples and operational events."""

    def __init__(self, system: str):
        self.system = system
        self.records: list[Request] = []
        self.submit_times: list[float] = []
        self.queue_samples: list[tuple[float, int]] = []
        self.events: list[ScalingEvent] = []

    @property
    def offered(self) -> int:
        return len(self.submit_times)

    # ------------------------------------------------------------------
    def on_submit(self, request: Request) -> None:
        self.submit_times.append(request.arrival_time)

    def on_complete(self, request: Request) -> None:
        self.records.append(request)

    def sample_queue(self, now: float, length: int) -> None:
        self.queue_samples.append((now, length))

    def on_event(self, event: ScalingEvent) -> None:
        self.events.append(event)

    # ------------------------------------------------------------------
    def populations(self, measure_from: float = 0.0) -> Populations:
        """Populations of requests arriving at/after ``measure_from``
        (warm-up transients excluded from the measured epoch)."""
        done = [
            r
            for r in self.records
            if r.completed and r.arrival_time >= measure_from
        ]
        episodes = detect_stalls(
            [r.completion_time for r in done], [r.latency for r in done]
        )
        # Events obey the measurement epoch like every other population:
        # warm-up deploys must not pollute warm_start_rate / init-time /
        # alloc-wait means (nor refactor_count) of the measured window.
        scale_outs = [
            e
            for e in self.events
            if e.kind == "scale_out" and e.time >= measure_from
        ]
        return Populations(
            offered=sum(1 for t in self.submit_times if t >= measure_from),
            goodput=sum(1 for r in done if r.slo_met),
            latencies=[r.latency for r in done],
            queue=[r.queue_time for r in done],
            execution=[r.exec_time for r in done],
            comm=[r.comm_time for r in done],
            prefill=[
                r.prefill_latency for r in done if r.prefill_latency is not None
            ],
            qlens=[q for t, q in self.queue_samples if t >= measure_from],
            recoveries=list(recovery_times(episodes)),
            init_times=[e.init_time for e in scale_outs],
            wait_times=[e.wait_time for e in scale_outs],
            warm_starts=sum(1 for e in scale_outs if e.warm),
            refactor_count=sum(
                1
                for e in self.events
                if e.kind == "refactor" and e.time >= measure_from
            ),
        )

    def summarize(
        self,
        duration: float,
        *,
        gpu_busy_seconds: float = 0.0,
        gpus_used: int = 0,
        total_gpus: int = 0,
        measure_from: float = 0.0,
    ) -> RunSummary:
        """Summarise requests arriving at/after ``measure_from``."""
        return summarize_populations(
            self.system,
            duration,
            self.populations(measure_from),
            gpu_busy_seconds=gpu_busy_seconds,
            gpus_used=gpus_used,
        )


def summarize_populations(
    system: str,
    duration: float,
    pops: Populations,
    *,
    gpu_busy_seconds: float,
    gpus_used: int,
) -> RunSummary:
    """A :class:`RunSummary` from measured-epoch populations.

    The one place the population -> summary arithmetic lives: a run's
    own :meth:`MetricsCollector.summarize` and the sharded merge (over
    every shard's populations, concatenated) both call it.
    """
    latencies = np.array(pops.latencies)
    queue = np.array(pops.queue)
    execution = np.array(pops.execution)
    comm = np.array(pops.comm)
    prefill = np.array(pops.prefill)
    qlens = np.array(pops.qlens)
    recoveries = pops.recoveries
    scale_outs = len(pops.init_times)
    denominator = max(gpus_used, 1) * duration
    return RunSummary(
        system=system,
        duration=duration,
        offered=pops.offered,
        completed=len(pops.latencies),
        goodput=pops.goodput,
        goodput_rate=pops.goodput / pops.offered if pops.offered else 0.0,
        breakdown=LatencyBreakdown(
            queue=float(queue.mean()) if queue.size else 0.0,
            execution=float(execution.mean()) if execution.size else 0.0,
            communication=float(comm.mean()) if comm.size else 0.0,
        ),
        latency_percentiles=percentiles(latencies),
        mean_latency=float(latencies.mean()) if latencies.size else 0.0,
        mean_prefill_latency=float(prefill.mean()) if prefill.size else 0.0,
        gpu_utilization=min(gpu_busy_seconds / denominator, 1.0)
        if denominator > 0
        else 0.0,
        gpus_used=gpus_used,
        mean_queue_length=float(qlens.mean()) if qlens.size else 0.0,
        p95_queue_length=float(np.percentile(qlens, 95)) if qlens.size else 0.0,
        stall_cycle=float(np.mean(recoveries)) if recoveries else 0.0,
        median_recovery=float(np.median(recoveries)) if recoveries else 0.0,
        refactor_count=pops.refactor_count,
        scale_out_count=scale_outs,
        warm_start_rate=pops.warm_starts / scale_outs if scale_outs else 0.0,
        mean_init_time=float(np.mean(pops.init_times)) if scale_outs else 0.0,
        mean_alloc_wait=float(np.mean(pops.wait_times)) if scale_outs else 0.0,
        p99_ttft=float(np.percentile(prefill, 99)) if prefill.size else 0.0,
    )
