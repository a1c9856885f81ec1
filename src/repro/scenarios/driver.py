"""Compiles a :class:`ScenarioSpec` onto the simulator and runs it.

One :class:`ScenarioCase` = (spec, system, seed).  The driver builds the
cluster, builds the system through the systems registry
(:func:`~repro.experiments.systems.build_system`), schedules every
arrival segment and scripted event as simulator processes, attaches
the :class:`~repro.validation.auditor.InvariantAuditor` (mid-run after
every scripted event, the full set at quiesce) and emits
per-model plus aggregate :class:`~repro.metrics.collector.RunSummary`
rows.  Cases are plain data, so ``run_cases`` fans them out through the
parallel experiment runner and caches their reports in ``.runcache/``
under the code fingerprint.  Catalog scenarios, the chaos audit and every
paper-figure cell run this one path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable

from repro.cluster.allocator import AllocationError
from repro.cluster.failures import (
    FailureInjector,
    ReclamationPolicy,
    VictimChoice,
)
from repro.core.admission import AdmissionGate, QueueCapPolicy
from repro.core.context import ServingContext
from repro.experiments.common import build_environment, make_workload_sampler
from repro.experiments.systems import SYSTEMS, build_system
from repro.metrics.collector import MetricsCollector, RunSummary
from repro.qos.admission import build_tenant_gate
from repro.qos.classes import DEFAULT_CLASS, get_slo_class
from repro.scenarios.spec import ArrivalSegment, ModelScript, ScenarioSpec
from repro.validation.auditor import InvariantAuditor, Violation
from repro.workloads.arrivals import (
    DiurnalArrivals,
    MMPPArrivals,
    ReplayArrivals,
    make_arrivals,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.traces import DiurnalTrace, DiurnalTraceConfig

MAX_EVENTS = 30_000_000


@dataclass(frozen=True)
class ScenarioCase:
    """One scenario run: a spec bound to a system and a seed.

    ``shards``: 0 runs the classic monolithic driver; >= 1 routes the case
    through the shard partitioner (``repro scenario run --shards N``).
    The value is the *worker-process* count only — the decomposition into
    shard groups is a pure function of the spec, so results are identical
    for every ``shards >= 1`` (and the cache key records just the mode).

    ``trace``: arm the observability taps (span tracer + fleet flight
    recorder) for this run.  Traced runs never consult the result cache.

    ``overrides``: keyword arguments forwarded to the system factory
    (the ablation switches, a static system's ``n_stages``).
    Given as a dict or pairs, stored as sorted ``(key, value)`` pairs so
    equal overrides hash and cache-key alike.  A key that one of the
    spec's knobs already sets (``min_replicas`` under ``scale_to_zero``)
    raises ``ValueError``.
    """

    spec: ScenarioSpec
    system: str = "FlexPipe"
    seed: int = 0
    shards: int = 0
    trace: bool = False
    overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        pairs = tuple(sorted(dict(self.overrides).items()))
        object.__setattr__(self, "overrides", pairs)
        clash = sorted(
            set(dict(pairs)) & set(spec_overrides(self.spec, self.system))
        )
        if clash:
            raise ValueError(
                f"ScenarioCase: field 'overrides' {clash} clash with knobs "
                f"of scenario {self.spec.name!r}"
            )


@dataclass
class TenantQoS:
    """Per-tenant QoS accounting for one scenario run.

    ``offered`` counts everything the tenant's generators produced (shed
    included), so ``attainment`` — goodput over offered — charges sheds
    as SLO misses: a control plane cannot improve its attainment by
    shedding feasible work.

    ``gpu_share_peak`` is the tenant's high-water fraction of fleet GPU
    memory over the run; ``share_cap`` its configured limit (``None`` =
    uncapped) — together the per-tenant GPU-share row of ``repro qos``.
    """

    model: str
    slo_class: str | None
    offered: int
    admitted: int
    shed: int
    completed: int
    goodput: int
    gpu_share_peak: float = 0.0
    share_cap: float | None = None
    # Arbitration and elastic-contract traffic: preemptions this tenant
    # won (its deploy evicted a lower-class pending claim) / lost (its
    # own pending claim was evicted), borrow grants it received, and
    # reclaim demands it issued as a lender.
    preemptions_won: int = 0
    preemptions_lost: int = 0
    borrows: int = 0
    reclaims: int = 0

    @property
    def attainment(self) -> float:
        return self.goodput / self.offered if self.offered else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


@dataclass
class ScenarioReport:
    """Outcome of one scenario case (picklable, pool-safe)."""

    scenario: str
    system: str
    seed: int
    violations: list[Violation] = field(default_factory=list)
    aggregate: RunSummary | None = None
    per_model: dict[str, RunSummary] = field(default_factory=dict)
    offered: int = 0
    completed: int = 0
    shed: int = 0
    events: dict[str, int] = field(default_factory=dict)
    horizon: float = 0.0
    qos_enabled: bool = False
    tenants: dict[str, TenantQoS] = field(default_factory=dict)
    # --- sharded execution (0/""/0 on the classic monolithic path) ---
    shards: int = 0  # shard *groups* the run decomposed into
    shard_fallback: str = ""  # why a --shards run fell back to one shard
    engine_events: int = 0  # total simulator events across all shards
    # --- observability (empty unless the case asked for tracing) ---
    traces: list = field(default_factory=list)  # FinalTrace rows
    fleet_events: list = field(default_factory=list)  # FleetEvent rows

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# Lifecycle actions behind the scripted events.  All work strictly
# through public interfaces (factories, routers, executors).
# ----------------------------------------------------------------------
def pick_model(system, rng) -> str:
    names = sorted(system.specs)
    return names[int(rng.integers(len(names)))]


def action_scale_out(system, rng, model: str | None = None) -> str:
    """Deploy one more replica for ``model`` (random if omitted)."""
    model = model or pick_model(system, rng)
    try:
        system.deploy_extra(model, rng)
    except AllocationError:
        return "blocked"
    return "ok"


def action_drain(system, rng, model: str | None = None) -> str:
    """Release one live replica (of ``model`` when given)."""
    factory = system.factory
    live = factory.live_replicas()
    if model is not None:
        live = [r for r in live if r.profile.spec.name == model]
    if not live:
        return "noop"
    factory.release(live[int(rng.integers(len(live)))])
    return "ok"


def action_refactor(
    system, rng, model: str | None = None, target_stages: int | None = None
) -> str:
    """Force an inflight refactor of one active replica (FlexPipe only)."""
    executors = system.executors()
    if not executors:
        return "unsupported"
    model = model or pick_model(system, rng)
    executor = executors[model]
    active = system.routers[model].active_replicas
    if not active:
        return "noop"
    replica = active[int(rng.integers(len(active)))]
    counts = executor.ladder.stage_counts
    if target_stages is not None:
        target = min(counts, key=lambda c: abs(c - target_stages))
        if target == replica.plan.n_stages:
            return "noop"
    else:
        targets = [c for c in counts if c != replica.plan.n_stages]
        if not targets:
            return "noop"
        target = int(targets[int(rng.integers(len(targets)))])
    started = executor.refactor(replica, int(target))
    return "ok" if started else "declined"


# ----------------------------------------------------------------------
# Segment compilation
# ----------------------------------------------------------------------
def _make_segment_arrivals(
    segment: ArrivalSegment, rng, trace_rng, *, azure2019=None
):
    """Build the arrival process for one segment (at the segment's start)."""
    if segment.kind == "steady":
        return make_arrivals(segment.qps, segment.cv, rng)
    if segment.kind == "azure2019":
        return _make_azure2019_arrivals(segment, azure2019, rng)
    if segment.kind == "burst":
        # Spec validation guarantees cv > 1 (MMPP's requirement), so the
        # declared intensity is honoured exactly.
        return MMPPArrivals.with_cv(
            segment.qps, segment.cv, rng, mean_cycle=segment.burst_cycle
        )
    if segment.kind == "diurnal":
        return DiurnalArrivals(
            segment.qps, rng, amplitude=segment.amplitude, period=segment.period
        )
    # replay: a seeded synthetic production trace compressed into the
    # segment (one "day" per segment), scaled to the requested mean rate.
    trace = DiurnalTrace(
        trace_rng,
        DiurnalTraceConfig(
            base_rate=segment.qps,
            day_seconds=max(segment.duration, 1.0),
            burst_factor=8.0,
            burst_rate_per_hour=3600.0 / max(segment.duration, 1.0),
            burst_mean_duration=max(segment.duration * 0.05, 1.0),
        ),
    )
    return ReplayArrivals(trace.generate(segment.duration), rng)


def _make_azure2019_arrivals(segment: ArrivalSegment, source, rng):
    """Replay one AzureFunctionsDataset2019 function, fully streaming.

    The scenario's source block names the dataset window; the segment
    names one function of it.  The whole window maps onto the segment's
    duration (``scale = duration / window_seconds``), so a
    time-compressed ``--quick`` run still replays every trace minute.
    Minting is the vectorised lazy generator — ``ReplayArrivals`` pulls
    one stamp per arrival, so the full request list never materialises —
    and draws no randomness, so playback is identical under any shard
    decomposition.
    """
    from repro.workloads.azure2019 import (
        iter_minted_stamps,
        load_window_cached,
    )

    if source is None:
        raise ValueError(
            "azure2019 segment without a spec-level azure2019 source block"
        )
    window = load_window_cached(source)
    fn = window.function(segment.trace_function)
    scale = segment.duration / source.window_seconds
    return ReplayArrivals(iter_minted_stamps(fn.counts, scale=scale), rng)


class ScenarioDriver:
    """Runs one compiled scenario end-to-end.

    The run is phased — :meth:`start` builds the world, :meth:`advance`
    simulates up to a time, :meth:`finish` quiesces and reports — so the
    scenario benchmark can time setup and simulation windows separately.
    :meth:`run` chains the three, which is all that monolithic and
    sharded runs need.

    ``server_indices`` (shard execution) restricts the driver to the
    sub-cluster owning those servers of the spec's named topology.
    """

    def __init__(self, case: ScenarioCase, *, server_indices=None):
        resolve_systems([case.system])
        self.case = case
        self.spec = case.spec
        self.generators: dict[str, list[WorkloadGenerator]] = {
            m.model: [] for m in self.spec.models
        }
        self.event_counts: dict[str, int] = {}
        self.violations: dict[tuple[str, str], Violation] = {}
        self._server_indices = (
            tuple(server_indices) if server_indices is not None else None
        )
        self._started = False

    # ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        self.start()
        self.advance(self.horizon)
        return self.finish()

    # ------------------------------------------------------------------
    # Phase 1: build the world (no simulated time passes here)
    # ------------------------------------------------------------------
    def start(self) -> None:
        spec, case = self.spec, self.case
        sim, cluster, streams, fragmentation = build_environment(
            case.seed,
            spec.cluster,
            spec.fragmentation,
            server_indices=self._server_indices,
        )
        self.sim = sim
        self.streams = streams
        self.cluster = cluster
        self.fragmentation = fragmentation
        # Cache-tier capacity knobs are hardware, so they apply to every
        # system identically (policy comparisons stay apples-to-apples).
        if spec.host_cache_gb is not None:
            for server in cluster.servers:
                server.host_memory = spec.host_cache_gb * 2**30
        if spec.ssd_cache_gb is not None:
            for server in cluster.servers:
                server.ssd_capacity = spec.ssd_cache_gb * 2**30
        if spec.storage_gbps is not None:
            cluster.storage.spec = replace(
                cluster.storage.spec, bandwidth=spec.storage_gbps * 2**30
            )
        ctx = ServingContext.create(sim, cluster, streams)
        overrides = {
            **spec_overrides(spec, case.system),
            **dict(case.overrides),
        }
        system = build_system(case.system, ctx, spec, **overrides)
        self.system = system
        self.tracer = None
        self.recorder = None
        if case.trace:
            self._install_tracing()
        try:
            system.start()
        except AllocationError:
            # Cold start on a fragmented cluster may not fit the whole
            # fleet; the system serves with what it got (atomic per
            # replica) and its control loops recover — part of the test.
            pass
        self.epoch = spec.epoch  # the measured epoch (settle + warmup)
        self.horizon = spec.horizon
        # Time boundaries at which setup hooks run mid-simulation; advance()
        # crosses them in order regardless of the caller's window sizes.
        self._boundaries: list[tuple[float, Callable[[], None]]] = [
            (spec.settle, self._open_epoch)
        ]
        self._started = True

    def _install_tracing(self) -> None:
        """Arm the observability taps (tracer + flight recorder).

        Installation is pure attribute assignment — no events are
        scheduled and no RNG is drawn — so the simulated run is identical
        to an untraced one; only the recording differs.
        """
        from repro.observability import FlightRecorder, SpanTracer

        sim = self.sim
        self.tracer = SpanTracer()
        self.recorder = FlightRecorder()
        sim.tracer = self.tracer
        sim.recorder = self.recorder
        allocator = self.system.ctx.allocator
        allocator.recorder = self.recorder
        # The allocator stamps events through its elastic-shares clock;
        # arm it here so borrow/preemption events carry simulation time
        # even when elastic contracts never turn on (enable_elastic_shares
        # later replaces it with an equivalent sim-now closure).
        allocator._clock = lambda: sim.now
        cache = getattr(self.system, "warm_cache", None)
        if cache is not None:
            cache.recorder = self.recorder

    def _open_epoch(self) -> None:
        """At the traffic epoch: arm gates, auditor, injector, workloads.

        Measurement opens ``spec.warmup`` seconds later (at
        ``self.epoch``); traffic and scripted events start now."""
        spec, sim = self.spec, self.sim
        system = self.system
        if spec.warmup:
            sim.schedule(spec.warmup, system.reset_measurement_epoch)
        else:
            system.reset_measurement_epoch()
        if spec.qos_enabled:
            # The QoS control plane: class-aware routing + attainment
            # signals on the system, one admission chain per tenant.
            class_map = {
                m.model: get_slo_class(m.slo_class or DEFAULT_CLASS)
                for m in spec.models
            }
            share_caps = {
                m.model: m.share_cap
                for m in spec.models
                if m.share_cap is not None
            }
            system.enable_qos(
                class_map,
                share_caps=share_caps or None,
                elastic=spec.elastic,
            )
            self.gate = build_tenant_gate(
                system, class_map, cap=int(spec.admission_cap)
            )
        else:
            # The null policy: one shared queue-cap chain (or none).
            cap = int(spec.admission_cap)
            self.gate = AdmissionGate(
                system.submit,
                [QueueCapPolicy(system.total_queue, cap)] if cap else [],
            )
        if self.recorder is not None:
            self.gate.recorder = self.recorder
        # Streaming accounting: per-tenant collectors are fed at arrival
        # time (admitted requests only), so generators never need to
        # retain the full request population for post-hoc replay.
        self.collectors = {
            m.model: MetricsCollector(f"{self.case.system}:{m.model}")
            for m in spec.models
        }
        self.auditor = InvariantAuditor(system, gates=[self.gate])
        self.injector = FailureInjector(
            sim,
            self.cluster,
            self.streams.stream("scenario-failures"),
            system,
            policy=ReclamationPolicy(
                mtbf=1e12,  # events only fire from the script
                downtime_mean=spec.downtime_mean,
                choice=VictimChoice.SERVING_BIASED,
            ),
        )
        self._schedule_segments(spec.settle)
        self._schedule_events(spec.settle)

    # ------------------------------------------------------------------
    # Phase 2: simulate (one shot, or in windows under the benchmark)
    # ------------------------------------------------------------------
    def advance(self, until: float) -> None:
        """Simulate up to ``until``, crossing setup boundaries in order."""
        if not self._started:
            raise RuntimeError("advance() before start()")
        while self._boundaries and self._boundaries[0][0] <= until:
            at, hook = self._boundaries.pop(0)
            self.sim.run(until=at, max_events=MAX_EVENTS)
            hook()
        self.sim.run(until=until, max_events=MAX_EVENTS)

    # ------------------------------------------------------------------
    # Phase 3: quiesce + report
    # ------------------------------------------------------------------
    def finish(self) -> ScenarioReport:
        if not self._started:
            raise RuntimeError("finish() before start()")
        self.advance(self.horizon)  # no-op when already there
        self.injector.stop()
        self.system.shutdown()
        if self.fragmentation is not None:
            self.fragmentation.stop()
        self.sim.run_until_idle(max_events=MAX_EVENTS)

        all_generators = [g for gens in self.generators.values() for g in gens]
        self.auditor.generators = all_generators
        self._record(self.auditor.audit_quiesce())
        report = self._report()
        if self.tracer is not None:
            report.traces = list(self.tracer.finalized)
            report.fleet_events = list(self.recorder.events)
        return report

    # ------------------------------------------------------------------
    def _record(self, violations: list[Violation]) -> None:
        for violation in violations:
            self.violations.setdefault(
                (violation.invariant, violation.detail), violation
            )

    # ------------------------------------------------------------------
    def _schedule_segments(self, epoch: float) -> None:
        for script in self.spec.models:
            for i, segment in enumerate(script.segments):
                self.sim.schedule_at(
                    epoch + segment.start, self._start_segment, script, segment, i
                )

    def _start_segment(
        self, script: ModelScript, segment: ArrivalSegment, index: int
    ) -> None:
        model = script.model
        tag = f"_{model}_s{index}" if script.stream is None else script.stream
        arrivals = _make_segment_arrivals(
            segment,
            self.streams.stream(f"arrivals{tag}"),
            self.streams.stream(f"trace{tag}"),
            azure2019=self.spec.azure2019,
        )
        sampler = make_workload_sampler(
            script,
            self.streams,
            tag=tag,
            # Segment override wins over the tenant class; unclassed
            # tenants keep minting historical (class-free) requests.
            slo_class=segment.slo_class or script.slo_class,
        )
        generator = WorkloadGenerator(
            self.sim,
            arrivals,
            sampler,
            self.gate.submit,
            segment.duration,
            # Streaming accounting: only gate-shed requests are retained
            # (the auditor's exactly-once-shed evidence); admitted ones
            # flow into the per-tenant collector at arrival and are
            # otherwise owned by the serving system.
            retain="rejected",
            observer=partial(self._observe_arrival, model),
        )
        self.generators[model].append(generator)

    def _observe_arrival(self, model: str, request) -> None:
        if not request.rejected:
            self.collectors[model].on_submit(request)

    # ------------------------------------------------------------------
    def _schedule_events(self, epoch: float) -> None:
        for event in self.spec.events:
            self.sim.schedule_at(epoch + event.at, self._fire_event, event)

    def _fire_event(self, event) -> None:
        rng = self.streams.stream("scenario-events")
        for _ in range(event.count):
            if event.action == "reclaim":
                outcome = "ok" if self.injector.inject() is not None else "noop"
            elif event.action == "fail_server":
                outcome = self._fail_server(rng)
            elif event.action == "drain":
                outcome = action_drain(self.system, rng, model=event.model)
            elif event.action == "refactor":
                outcome = action_refactor(
                    self.system,
                    rng,
                    model=event.model,
                    target_stages=event.target_stages,
                )
            else:  # scale_out
                outcome = action_scale_out(self.system, rng, model=event.model)
            key = f"{event.action}:{outcome}"
            self.event_counts[key] = self.event_counts.get(key, 0) + 1
        # Audit immediately: a violation is attributed to the event that
        # exposed it, not discovered minutes later at quiesce.
        self._record(self.auditor.audit_running())

    def _fail_server(self, rng) -> str:
        """Reclaim every GPU of one (seeded-random) multi-GPU server."""
        servers = [s for s in self.cluster.servers if len(s.gpus) > 1]
        pool = servers or list(self.cluster.servers)
        if not pool:
            return "noop"
        server = pool[int(rng.integers(len(pool)))]
        fired = sum(
            1 for gpu in server.gpus if self.injector.inject(gpu) is not None
        )
        return "ok" if fired else "noop"

    # ------------------------------------------------------------------
    def _report(self) -> ScenarioReport:
        spec = self.spec
        measured = spec.measured
        aggregate = self.system.summarize(measured)
        per_model: dict[str, RunSummary] = {}
        tenants: dict[str, TenantQoS] = {}
        records_of: dict[str, list] = {}
        for record in self.system.metrics.records:
            records_of.setdefault(record.model, []).append(record)
        for script in spec.models:
            summary = self._model_summary(
                script.model, records_of.get(script.model, []), measured
            )
            row = self._tenant_row(script, summary)
            tenants[script.model] = row
            per_model[script.model] = replace(
                summary,
                slo_class=script.slo_class or "",
                shed=row.shed,
                slo_attainment=row.attainment,
                preemptions_won=row.preemptions_won,
                preemptions_lost=row.preemptions_lost,
                borrows=row.borrows,
                reclaims=row.reclaims,
            )
        offered = sum(
            g.offered for gens in self.generators.values() for g in gens
        )
        completed = len({r.rid for r in self.system.metrics.records})
        return ScenarioReport(
            scenario=spec.name,
            system=self.case.system,
            seed=self.case.seed,
            violations=list(self.violations.values()),
            aggregate=aggregate,
            per_model=per_model,
            offered=offered,
            completed=completed,
            shed=self.gate.stats.rejected,
            events=dict(sorted(self.event_counts.items())),
            horizon=spec.horizon,
            qos_enabled=spec.qos_enabled,
            tenants=tenants,
            engine_events=self.sim.events_processed,
        )

    def _tenant_row(self, script, summary: RunSummary) -> TenantQoS:
        """Per-tenant QoS accounting (offered includes gate sheds)."""
        generators = self.generators[script.model]
        offered = sum(g.offered for g in generators)
        shed = sum(
            1 for g in generators for r in g.requests if r.rejected
        )
        allocator = self.system.ctx.allocator
        model = script.model
        return TenantQoS(
            model=model,
            slo_class=script.slo_class,
            offered=offered,
            admitted=offered - shed,
            shed=shed,
            completed=summary.completed,
            goodput=summary.goodput,
            gpu_share_peak=allocator.tenant_peak_share(model),
            share_cap=script.share_cap,
            preemptions_won=sum(
                1 for p in allocator.preemptions if p.claimant_model == model
            ),
            preemptions_lost=sum(
                1 for p in allocator.preemptions if p.victim_model == model
            ),
            borrows=allocator.borrow_events.get(model, 0),
            reclaims=sum(
                1 for d in allocator.reclaim_demands if d.lender == model
            ),
        )

    def _model_summary(
        self, model: str, records: list, measured: float
    ) -> RunSummary:
        """Per-tenant summary of *admitted* and completed work.

        Gate-shed requests never reach a tenant, so they are excluded
        here (the summary's ``offered`` means admitted); the report's
        top-level ``offered`` counts everything generated, with ``shed``
        carrying the difference.  The collector was fed at arrival time
        (streaming), so only the tenant's completion ``records`` (in
        completion order) are attached here.
        """
        collector = self.collectors[model]
        collector.records = records
        return collector.summarize(measured, measure_from=self.spec.epoch)


# ----------------------------------------------------------------------
# Case execution + fan-out
# ----------------------------------------------------------------------
def spec_overrides(spec: ScenarioSpec, system: str) -> dict[str, Any]:
    """System keyword arguments that the spec's own knobs set."""
    overrides: dict[str, Any] = (
        {}
        if spec.initial_replicas is None
        else {"initial_replicas": spec.initial_replicas}
    )
    if system == "FlexPipe":
        # Cold-start economy knobs exist only on FlexPipe; the baselines
        # take none of them and keep their historical loading behaviour.
        if spec.cache_policy != "lru":
            overrides["cache_policy"] = spec.cache_policy
        if spec.pipelined_loading:
            overrides["pipelined_loading"] = True
        if spec.scale_to_zero:
            overrides["min_replicas"] = 0
        if spec.idle_window is not None:
            overrides["scale_in_idle_window"] = spec.idle_window
    return overrides


def resolve_systems(systems: list[str] | None) -> list[str]:
    """``systems`` checked against the registry (``None`` = every one)."""
    chosen = list(systems) if systems else sorted(SYSTEMS)
    unknown = [s for s in chosen if s not in SYSTEMS]
    if unknown:
        raise KeyError(
            f"unknown system(s) {unknown}; available: {sorted(SYSTEMS)}"
        )
    return chosen


def run_scenario_case(case: ScenarioCase) -> ScenarioReport:
    """Run one scenario case; any crash becomes a ``harness-crash`` finding
    on the report (the (scenario, system, seed) reproducer contract)."""
    try:
        if case.shards > 0:
            from repro.scenarios.sharding import run_sharded_case

            return run_sharded_case(case)
        return ScenarioDriver(case).run()
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return crash_report(case, exc)


def crash_report(case: ScenarioCase, exc: Exception) -> ScenarioReport:
    """A crashed case as a report carrying one ``harness-crash`` finding."""
    return ScenarioReport(
        scenario=case.spec.name,
        system=case.system,
        seed=case.seed,
        violations=[Violation("harness-crash", f"{type(exc).__name__}: {exc}")],
    )


_CACHE_VERSION = 6


def scenario_cache_key(case: ScenarioCase, fingerprint: str) -> str:
    """Content hash of one scenario cell (same scheme as figure cells).

    The key records only *whether* the case runs sharded, never the
    worker count: sharded results are shard-count-invariant by
    construction, so ``--shards 2`` and ``--shards 4`` share a cache
    entry (exactly like the runner's jobs-invariance).

    Trace-replay scenarios additionally key on the trace data: the
    azure2019 source block (window, top-K, seed) rides in the spec dict,
    and the files behind a real ``dataset_dir`` contribute a content
    fingerprint — replacing the dataset on disk invalidates the cached
    cell even though the spec is unchanged.
    """
    payload = {
        "version": _CACHE_VERSION,
        "code": fingerprint,
        "system": case.system,
        "seed": case.seed,
        "sharded": case.shards > 0,
        "overrides": list(case.overrides),
        "spec": case.spec.to_dict(),
    }
    if case.spec.azure2019 is not None:
        from repro.workloads.azure2019 import dataset_fingerprint

        payload["trace_data"] = dataset_fingerprint(case.spec.azure2019)
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_scenarios(
    specs: list[ScenarioSpec],
    systems: list[str] | None = None,
    *,
    seed: int = 0,
    quick: bool = False,
    runner=None,
    shards: int = 0,
) -> list[ScenarioReport]:
    """Run every (scenario, system) cell, order-stable.

    ``shards >= 1`` routes each cell through the shard partitioner with
    that many worker processes (results are shard-count-invariant).
    """
    chosen = resolve_systems(systems)
    cases = [
        ScenarioCase(spec.quick() if quick else spec, system, seed, max(shards, 0))
        for spec in specs
        for system in chosen
    ]
    return run_cases(cases, runner=runner)


def run_cases(cases: list[ScenarioCase], *, runner=None) -> list[ScenarioReport]:
    """Run every case, order-stable, one report each.

    Cases fan out through ``runner`` (default: an ``ExperimentRunner``
    configured by ``REPRO_JOBS`` / ``REPRO_NO_CACHE``) and consult its
    on-disk result cache: re-running a sweep only recomputes cells whose
    spec, system, seed, overrides or the source tree changed.
    """
    from repro.experiments.runner import ExperimentRunner

    return (runner or ExperimentRunner()).cached_map(
        run_scenario_case,
        cases,
        scenario_cache_key,
        # A crash report describes the environment, not the scenario —
        # persisting it would pin a transient failure until the next
        # source edit.  Crashed cells always re-execute.
        cacheable=lambda report: not any(
            v.invariant == "harness-crash" for v in report.violations
        ),
    )
