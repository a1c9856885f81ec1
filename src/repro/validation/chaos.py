"""Chaos fuzz harness: seeded adversarial lifecycle interleavings.

One chaos case = one serving system + one seed.  The seed derives the
whole scenario — workload intensity/burstiness, admission cap,
fragmentation, and a random schedule of refactor / scale-out / drain /
failure injections fired while traffic flows.  After the run the system
is shut down, the simulator drained to quiesce, and the full
:class:`~repro.validation.auditor.InvariantAuditor` suite asserted: any
dropped request or leaked reservation under *any* interleaving is a bug.

Cases are independent and picklable, so ``audit_seeds`` fans them out
through the parallel experiment runner (``repro audit --seeds N``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.allocator import AllocationError
from repro.cluster.failures import (
    FailureInjector,
    ReclamationPolicy,
    VictimChoice,
)
from repro.core.admission import AdmissionGate, QueueCapPolicy
from repro.core.context import ServingContext
from repro.experiments.common import (
    ExperimentConfig,
    build_environment,
    make_arrival_process,
    make_workload_sampler,
)
from repro.experiments.systems import SYSTEM_FACTORIES, make_distserve
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.validation.auditor import InvariantAuditor, Violation
from repro.workloads.generator import WorkloadGenerator

def _chaos_distserve(ctx, cfg, **overrides):
    """DistServe sized for the small chaos cluster (its paper-provisioned
    defaults — 16 decode stages, peak-fraction replica counts — cannot
    even start on 16 fragmented GPUs)."""
    overrides.setdefault("initial_replicas", 2)
    overrides.setdefault("decode_stages", 8)
    return make_distserve(ctx, cfg, **overrides)


# Everything the chaos audit exercises: the figure-sweep systems plus
# DistServe (kept out of SYSTEM_FACTORIES so paper sweeps are unchanged).
CHAOS_SYSTEMS = dict(SYSTEM_FACTORIES, DistServe=_chaos_distserve)


@dataclass(frozen=True)
class ChaosCase:
    """One seeded chaos scenario against one system.

    The default case is the PR-2 shape (one model, small cluster);
    ``extra_models``/``cluster`` lift it to the paper's fragmented
    multi-model setting, where refactors, drains and reclamations of one
    tenant interleave with traffic of the others.
    """

    system: str = "FlexPipe"
    seed: int = 0
    model: str = "LLAMA2-7B"
    extra_models: tuple[str, ...] = ()
    cluster: str = "small"  # "small" | "paper"
    settle: float = 60.0  # initial replicas load before traffic/chaos
    duration: float = 30.0  # traffic + chaos window
    mean_action_interval: float = 1.0  # mean gap between chaos actions (s)
    # (model, class-name) annotations: annotated tenants get QoS classes
    # (class deadlines, priority routing, per-tenant admission) and the
    # run is audited for the per-tenant shed-accounting invariant too.
    slo_classes: tuple[tuple[str, str], ...] = ()
    # (model, cap) share caps as fractions of fleet memory, and the
    # elastic-contract switch: with ``elastic`` the caps become
    # borrowable and FlexPipe's executor unlocks in-place transitions +
    # preemptible prepared claims — and the chaos schedule adds
    # borrow/reclaim-storm and mid-preparation-preemption actions.
    # Both require a classed fleet (QoS on).
    share_caps: tuple[tuple[str, float], ...] = ()
    elastic: bool = False
    max_events: int = 10_000_000

    def __post_init__(self) -> None:
        if len(set(self.models)) != len(self.models):
            raise ValueError(f"chaos case repeats a tenant: {self.models}")
        from repro.qos.classes import SLO_CLASSES

        for model, name in self.slo_classes:
            if model not in self.models:
                raise ValueError(
                    f"slo_classes annotates {model!r}, not a tenant of "
                    f"{self.models}"
                )
            if name not in SLO_CLASSES:
                raise ValueError(
                    f"unknown SLO class {name!r}; "
                    f"available: {sorted(SLO_CLASSES)}"
                )
        for model, cap in self.share_caps:
            if model not in self.models:
                raise ValueError(
                    f"share_caps annotates {model!r}, not a tenant of "
                    f"{self.models}"
                )
            if not 0.0 < cap <= 1.0:
                raise ValueError(f"share cap must be in (0, 1]: {model}={cap}")
        if (self.share_caps or self.elastic) and not self.slo_classes:
            raise ValueError(
                "share_caps/elastic need a classed fleet (slo_classes)"
            )

    @property
    def caps_of(self) -> dict[str, float]:
        return dict(self.share_caps)

    @property
    def models(self) -> tuple[str, ...]:
        return (self.model, *self.extra_models)

    @property
    def class_of(self) -> dict[str, str]:
        return dict(self.slo_classes)


# Model fleets the paper-cluster chaos cases rotate through (kept small
# models first so the common case stays fast; the OPT-66B fleet exercises
# the big-checkpoint load/refactor paths).
PAPER_FLEETS: tuple[tuple[str, ...], ...] = (
    ("LLAMA2-7B", "BERT-21B"),
    ("LLAMA2-7B", "WHISPER-9B", "BERT-21B"),
    ("OPT-66B", "LLAMA2-7B"),
)

# Class annotations for the fleets above (position-matched): every
# paper-cluster chaos case is a *multi-class* fleet, so reclaim / drain /
# refactor interleavings run against priority routing and per-tenant
# admission, and the shed-accounting invariant is exercised under chaos.
PAPER_FLEET_CLASSES: tuple[tuple[str, ...], ...] = (
    ("interactive", "batch"),
    ("interactive", "standard", "batch"),
    ("batch", "interactive"),
)

# Elastic-contract arming for the fleets above (position-matched): caps
# generous enough that the fleet's initial provisioning fits under them,
# so the chaos (borrow surges, reclaim storms) — not the cold start — is
# what pushes tenants across their caps.  The OPT-66B fleet stays
# uncapped: its big-checkpoint loads need the whole fragmented cluster.
PAPER_FLEET_CAPS: tuple[tuple[tuple[str, float], ...], ...] = (
    (("LLAMA2-7B", 0.45), ("BERT-21B", 0.45)),
    (("LLAMA2-7B", 0.40), ("BERT-21B", 0.40)),
    (),
)


def paper_case(system: str, seed: int, **kwargs) -> ChaosCase:
    """A paper-cluster multi-model chaos case for ``seed``.

    ``kwargs`` take precedence over the fleet defaults, preserving
    ``audit_seeds``' documented ``case_kwargs`` pass-through even for
    keys the paper shape also sets (model, extra_models, cluster).
    """
    index = seed % len(PAPER_FLEETS)
    fleet = PAPER_FLEETS[index]
    classes = dict(zip(fleet, PAPER_FLEET_CLASSES[index]))
    fields = dict(model=fleet[0], extra_models=fleet[1:], cluster="paper")
    fields.update(kwargs)
    # A pinned primary may coincide with a fleet member; drop the
    # duplicate so the case keeps one generator per tenant.
    fields["extra_models"] = tuple(
        m for m in fields["extra_models"] if m != fields["model"]
    )
    if "slo_classes" not in fields:
        tenants = (fields["model"], *fields["extra_models"])
        fields["slo_classes"] = tuple(
            (m, classes[m]) for m in tenants if m in classes
        )
    if "share_caps" not in fields:
        # Caps (and elastic, below) require a classed fleet, so a caller
        # that overrode the annotations away gets a static uncapped case.
        caps = dict(PAPER_FLEET_CAPS[index]) if fields["slo_classes"] else {}
        tenants = (fields["model"], *fields["extra_models"])
        fields["share_caps"] = tuple(
            (m, caps[m]) for m in tenants if m in caps
        )
    if "elastic" not in fields:
        # Elastic contracts ride along wherever caps are armed, so the
        # audit rotation exercises borrow/reclaim and in-place
        # transitions under every capped paper fleet.
        fields["elastic"] = bool(fields["share_caps"])
    return ChaosCase(system=system, seed=seed, **fields)


@dataclass
class ChaosReport:
    """Outcome of one chaos case."""

    case: ChaosCase
    violations: list[Violation] = field(default_factory=list)
    actions: dict[str, int] = field(default_factory=dict)
    offered: int = 0
    completed: int = 0
    shed: int = 0
    offered_by_model: dict[str, int] = field(default_factory=dict)
    completed_by_model: dict[str, int] = field(default_factory=dict)
    shed_by_model: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


class ChaosSchedule:
    """Fires seeded random lifecycle actions into a live serving system.

    Actions work strictly through public interfaces (factories, routers,
    executors, the failure injector), exactly like the disturbances a
    fragmented serverless platform produces.  Every tick also runs the
    auditor's mid-run checks, so a transient violation is caught at the
    interleaving that produced it, not just at quiesce.
    """

    def __init__(
        self,
        sim: Simulator,
        system,
        rng,
        *,
        auditor: InvariantAuditor,
        injector: FailureInjector | None = None,
        mean_interval: float = 1.0,
        audit_every_tick: bool = True,
    ):
        self.sim = sim
        self.system = system
        self.rng = rng
        self.auditor = auditor
        self.injector = injector
        self.mean_interval = mean_interval
        self.audit_every_tick = audit_every_tick
        self.actions: dict[str, int] = {}
        self.violations: dict[tuple[str, str], Violation] = {}
        self._stopped = True

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        self._stopped = True

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(self.mean_interval))
        self.sim.schedule(delay, self._tick)

    def _tick(self) -> None:
        if self._stopped:
            return
        choices = ["scale_out", "drain", "refactor", "fail"]
        weights = [0.3, 0.3, 0.25, 0.15]
        if getattr(self.system.ctx.allocator, "elastic_shares", False):
            # Armed-only extension (appended, weights rescaled): unarmed
            # runs draw byte-identical action sequences to before.
            choices += ["borrow_surge", "reclaim_lender", "preempt_prep"]
            weights = [w * 0.7 for w in weights] + [0.12, 0.09, 0.09]
        action = str(self.rng.choice(choices, p=weights))
        outcome = getattr(self, f"_do_{action}")()
        key = f"{action}:{outcome}" if outcome else action
        self.actions[key] = self.actions.get(key, 0) + 1
        if self.audit_every_tick:
            self.record(self.auditor.audit_running())
        self._schedule_next()

    def record(self, violations: list[Violation]) -> None:
        """Accumulate violations, de-duplicated on (invariant, detail)."""
        for violation in violations:
            self.violations.setdefault(
                (violation.invariant, violation.detail), violation
            )

    # ------------------------------------------------------------------
    # Actions (shared with the scenario engine's scripted events)
    # ------------------------------------------------------------------
    def _do_scale_out(self) -> str:
        return action_scale_out(self.system, self.rng)

    def _do_drain(self) -> str:
        return action_drain(self.system, self.rng)

    def _do_refactor(self) -> str:
        return action_refactor(self.system, self.rng)

    def _do_fail(self) -> str:
        if self.injector is None:
            return "unsupported"
        event = self.injector.inject()
        return "ok" if event is not None else "noop"

    # --- elastic-contract actions (armed only when elastic shares on) ---
    def _do_borrow_surge(self) -> str:
        """Push one capped tenant over its cap into borrowed headroom."""
        allocator = self.system.ctx.allocator
        capped = sorted(
            m for m in allocator.share_caps if m in self.system.specs
        )
        if not capped:
            return "noop"
        model = capped[int(self.rng.integers(len(capped)))]
        outcomes = [
            action_scale_out(self.system, self.rng, model=model)
            for _ in range(2)
        ]
        return "ok" if "ok" in outcomes else "blocked"

    def _do_reclaim_lender(self) -> str:
        """A lender wants its headroom back: deploy for a tenant with
        bytes lent out, forcing reclamation pressure on its borrowers."""
        allocator = self.system.ctx.allocator
        lenders = sorted(
            m
            for m in allocator.share_caps
            if m in self.system.specs and allocator._lent_out(m) > 0
        )
        if not lenders:
            return "noop"
        model = lenders[int(self.rng.integers(len(lenders)))]
        return action_scale_out(self.system, self.rng, model=model)

    def _do_preempt_prep(self) -> str:
        """Mid-preparation preemption pressure: start a refactor, then
        contend for memory with every other tenant's deploys — if the
        cluster is tight, arbitration preempts the in-flight
        preparation's prepared-chain claim."""
        started = action_refactor(self.system, self.rng)
        if started != "ok":
            return "noop"
        for model in sorted(self.system.specs):
            action_scale_out(self.system, self.rng, model=model)
        return "contended"


# ----------------------------------------------------------------------
# Lifecycle actions, usable by any harness (chaos schedule, scenario
# engine).  All work strictly through public interfaces.
# ----------------------------------------------------------------------
def pick_model(system, rng) -> str:
    names = sorted(system.specs)
    return names[int(rng.integers(len(names)))]


def action_scale_out(system, rng, model: str | None = None) -> str:
    """Deploy one more replica for ``model`` (random if omitted)."""
    model = model or pick_model(system, rng)
    profile = system.profiles[model]
    states = getattr(system, "_models", None)
    deploy_decode = getattr(system, "_deploy_decode", None)
    if states is not None:  # FlexPipe: random ladder rung
        ladder = states[model].ladder
        counts = ladder.stage_counts
        plan = ladder.plan(int(counts[int(rng.integers(len(counts)))]))
        deploy = lambda: system.factory.deploy(
            profile, plan, batch_cap=system.batch_cap
        )
    elif deploy_decode is not None and rng.random() < 0.5:
        # DistServe: also churn the decode pool, or drains could
        # empty it permanently with the fuzzer never re-growing it.
        deploy = lambda: deploy_decode(profile, model)
    else:  # baselines: their fixed granularity
        plan = system.plans[model]
        deploy = lambda: system._deploy(profile, plan)
    try:
        deploy()
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
    states = getattr(system, "_models", None)
    if not states:
        return "unsupported"
    model = model or pick_model(system, rng)
    state = states[model]
    active = system.routers[model].active_replicas
    if not active:
        return "noop"
    replica = active[int(rng.integers(len(active)))]
    if target_stages is not None:
        counts = state.ladder.stage_counts
        target = min(counts, key=lambda c: abs(c - target_stages))
        if target == replica.plan.n_stages:
            return "noop"
    else:
        targets = [
            c for c in state.ladder.stage_counts if c != replica.plan.n_stages
        ]
        if not targets:
            return "noop"
        target = int(targets[int(rng.integers(len(targets)))])
    started = state.executor.refactor(replica, int(target))
    return "ok" if started else "declined"


# ----------------------------------------------------------------------
# Case execution
# ----------------------------------------------------------------------
def run_chaos_case(case: ChaosCase) -> ChaosReport:
    """Run one seeded chaos scenario end-to-end and audit it.

    A crash anywhere inside the case is itself a finding: it is reported
    as a ``harness-crash`` violation on the case's report (so ``repro
    audit`` keeps its (system, seed, invariant) reproducer contract and
    the remaining seeds still run) rather than propagating.
    """
    try:
        return _run_chaos_case(case)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return ChaosReport(
            case=case,
            violations=[
                Violation(
                    "harness-crash",
                    f"{type(exc).__name__}: {exc}",
                )
            ],
        )


def _run_chaos_case(case: ChaosCase) -> ChaosReport:
    # Scenario knobs come from their own named stream, so drawing them
    # before the environment exists leaves every other stream untouched
    # (streams derive from (seed, name), not draw order).
    knobs = RandomStreams(case.seed).stream("chaos-config")
    qps = float(knobs.uniform(4.0, 12.0))
    cv = float(knobs.choice([1.0, 2.0, 4.0, 8.0]))
    cap = knobs.choice([0, 32, 128])  # 0 = no admission gate
    fragmented = bool(knobs.random() < 0.5)

    cfg = ExperimentConfig(
        model=case.model,
        qps=qps,
        cv=cv,
        duration=case.duration,
        seed=case.seed,
        cluster=case.cluster,
        batch_cap=16,
        settle_time=case.settle,
        extra_models=case.extra_models,
        fragmentation=fragmented,
    )
    sim, cluster, streams, fragmentation = build_environment(cfg)
    ctx = ServingContext.create(sim, cluster, streams)
    system = CHAOS_SYSTEMS[case.system](ctx, cfg)
    try:
        system.start()
    except AllocationError:
        # An under-provisioned cold start on a fragmented cluster is part
        # of the chaos: the system proceeds with whatever replicas fit
        # (per-replica allocation is atomic, so nothing dangles).
        pass
    sim.run(until=case.settle, max_events=case.max_events)

    class_of = case.class_of
    if class_of:
        # Multi-class fleet: the QoS control plane replaces the shared
        # gate — per-tenant policy chains, priority routing, attainment
        # signals — with unannotated tenants passing through unchanged.
        from repro.qos.admission import build_tenant_controller
        from repro.qos.classes import get_slo_class

        class_map = {m: get_slo_class(c) for m, c in class_of.items()}
        system.enable_qos(
            class_map,
            share_caps=case.caps_of or None,
            elastic=case.elastic,
        )
        gate = build_tenant_controller(system, class_map, cap=int(cap))
    else:
        policy = (
            QueueCapPolicy(system.total_queue, int(cap)) if cap else None
        )
        gate = AdmissionGate(system.submit, policy)
    generators = [
        WorkloadGenerator(
            sim,
            make_arrival_process(cfg, streams),
            make_workload_sampler(
                cfg, streams, slo_class=class_of.get(case.model)
            ),
            gate.submit,
            case.duration,
        )
    ]
    # Co-resident tenants: every extra model offers its own seeded traffic
    # through the same admission gate, so one tenant's burst can shed (or
    # starve) another's — the paper-cluster multiplexing effect.
    for extra in case.extra_models:
        extra_qps = float(knobs.uniform(2.0, 8.0))
        extra_cv = float(knobs.choice([1.0, 2.0, 4.0]))
        extra_cfg = ExperimentConfig(
            model=extra,
            qps=extra_qps,
            cv=extra_cv,
            duration=case.duration,
            seed=case.seed,
            batch_cap=16,
        )
        generators.append(
            WorkloadGenerator(
                sim,
                make_arrival_process(extra_cfg, streams, tag=f"_{extra}"),
                make_workload_sampler(
                    extra_cfg,
                    streams,
                    model=extra,
                    tag=f"_{extra}",
                    slo_class=class_of.get(extra),
                ),
                gate.submit,
                case.duration,
            )
        )
    auditor = InvariantAuditor(system, generators=generators, gates=[gate])
    injector = FailureInjector(
        sim,
        cluster,
        streams.stream("chaos-failures"),
        system,
        # mtbf is irrelevant (the schedule injects directly); short
        # downtimes keep the post-run quiesce window bounded.
        policy=ReclamationPolicy(
            mtbf=1e9, downtime_mean=5.0, choice=VictimChoice.SERVING_BIASED
        ),
    )
    chaos = ChaosSchedule(
        sim,
        system,
        streams.stream("chaos-actions"),
        auditor=auditor,
        injector=injector,
        mean_interval=case.mean_action_interval,
    )
    chaos.start()
    sim.run(until=case.settle + case.duration, max_events=case.max_events)
    chaos.stop()
    injector.stop()
    system.shutdown()
    if fragmentation is not None:
        fragmentation.stop()
    # Drain to quiesce: in-flight batches, pending loads, reclamation
    # restores and teardown all complete, then the conservation laws must
    # hold exactly.
    sim.run_until_idle(max_events=case.max_events)
    chaos.record(auditor.audit_quiesce())

    unique = {r.rid: r for r in system.metrics.records}
    completed_by_model: dict[str, int] = {}
    for request in unique.values():
        completed_by_model[request.model] = (
            completed_by_model.get(request.model, 0) + 1
        )
    return ChaosReport(
        case=case,
        violations=list(chaos.violations.values()),
        actions=dict(sorted(chaos.actions.items())),
        offered=sum(g.offered for g in generators),
        completed=len(unique),
        shed=gate.stats.rejected,
        offered_by_model={
            g.sampler.model: g.offered for g in generators
        },
        completed_by_model=completed_by_model,
        shed_by_model={
            g.sampler.model: sum(1 for r in g.requests if r.rejected)
            for g in generators
        },
    )


def audit_seeds(
    *,
    seeds: int = 10,
    systems: list[str] | None = None,
    runner=None,
    jobs: int | None = None,
    case_kwargs: dict | None = None,
    paper_every: int | None = 4,
) -> list[ChaosReport]:
    """Run the chaos audit over ``seeds`` seeds for each system.

    Every ``paper_every``-th seed runs as a *paper-cluster multi-model*
    case (rotating through :data:`PAPER_FLEETS`) instead of the
    single-model small-cluster shape, so the audit covers the paper's
    fragmented multiplexing setting too.  ``paper_every=None`` disables
    the mix (the PR-2 behaviour).

    Cases fan out through the parallel experiment runner's worker pool
    (``--jobs`` / ``REPRO_JOBS``); the result cache is bypassed — a chaos
    audit must always re-execute.
    """
    from repro.experiments.runner import make_runner

    chosen = list(systems) if systems else sorted(CHAOS_SYSTEMS)
    unknown = [s for s in chosen if s not in CHAOS_SYSTEMS]
    if unknown:
        raise KeyError(
            f"unknown system(s) {unknown}; available: {sorted(CHAOS_SYSTEMS)}"
        )
    kwargs = case_kwargs or {}
    cases = []
    for name in chosen:
        for seed in range(seeds):
            if paper_every and seed % paper_every == paper_every - 1:
                cases.append(paper_case(name, seed, **kwargs))
            else:
                cases.append(ChaosCase(system=name, seed=seed, **kwargs))
    exp_runner = make_runner(runner, jobs=jobs, use_cache=False)
    return exp_runner.map(run_chaos_case, cases)
