"""Tenant- and server-affine shard partitioning for scenario runs.

``repro scenario run --shards N`` routes each :class:`ScenarioCase`
through :func:`run_sharded_case`: the fleet is partitioned into shard
*groups* — one per tenant, or LPT-packed tenant sets on fleets larger
than the cluster — each owning a disjoint server slice of the spec's
named topology sized to its traffic and model footprint.  Every group
runs its own :class:`~repro.scenarios.driver.ScenarioDriver` (own
:class:`~repro.simulation.engine.Simulator`, own seeded streams, own
serving system) start to finish, independently of the others: the
groups are mapped over the experiment runner's process pool with ``N``
workers, and the finished slices are merged into one fleet report.

Two properties make the decomposition sound:

* **The partition is a pure function of the spec**, never of the worker
  count: ``--shards 1``, ``2`` and ``4`` produce byte-identical reports
  (the worker count only sets how many processes run the groups).
* **Tenant affinity keeps every deploy's replicas co-sharded**: a
  tenant's routers, replicas, migrations and DataMover transfers all
  live inside one group, so groups share no state and never need to
  synchronise mid-run.

Systems that cannot partition **fall back to a single shard** with the
reason recorded on the report:

* the QoS control plane is fleet-global (share caps and weighted-fair
  shedding are defined against *total* fleet memory/backlog);
* a single-tenant fleet has nothing to split;
* clusters too small to give every group a meaningful server slice.

The auditor runs unchanged inside every group (mid-run after each
scripted event, the full invariant set at quiesce); the merge layer adds
one *global* check — cross-shard request conservation at quiesce.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace

from repro.cluster.cluster import server_placements
from repro.cluster.gpu import GPUSpec
from repro.experiments.runner import ExperimentRunner
from repro.models.zoo import get_model
from repro.metrics.collector import Populations, RunSummary, summarize_populations
from repro.scenarios.driver import (
    ScenarioCase,
    ScenarioDriver,
    ScenarioReport,
    TenantQoS,
)
from repro.scenarios.spec import ScenarioSpec
from repro.validation.auditor import Violation

# A group must own at least this many servers to be worth isolating
# (thinner slices cannot absorb a scripted reclaim/failure without the
# run degenerating); below it the partitioner falls back to one shard.
MIN_SERVERS_PER_GROUP = 3


# ----------------------------------------------------------------------
# The partition plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardGroup:
    """One shard: a tenant subset bound to a server slice and a seed."""

    index: int
    models: tuple[str, ...]
    spec: ScenarioSpec  # the per-shard sub-spec (padded to parent duration)
    server_indices: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class ShardPlan:
    """The full decomposition of one scenario (pure data)."""

    scenario: str
    groups: tuple[ShardGroup, ...]
    fallback: str = ""  # non-empty: why the scenario runs single-shard

    @property
    def sharded(self) -> bool:
        return len(self.groups) > 1


def _traffic_weight(script) -> float:
    """A tenant's expected request volume (the server-slice sizing signal)."""
    return sum(s.qps * s.duration for s in script.segments)


def _min_gpus(script) -> int:
    """Fewest GPUs that can hold one replica of the tenant's model."""
    spec = get_model(script.model)
    usable = GPUSpec().memory * 0.9  # headroom for KV cache / runtime
    return max(int(math.ceil(spec.checkpoint_bytes / usable)), 1)


def _shard_seed(seed: int, models: tuple[str, ...]) -> int:
    """Stable per-group seed: a function of the case seed and the group's
    tenant set only (never of the worker count or group order)."""
    tag = ",".join(models)
    return (seed * 1_000_003 + zlib.crc32(tag.encode())) % (2**31)


def _assign_servers(
    placements, weights: list[float], floors: list[int]
) -> list[tuple[int, ...]]:
    """Deal servers to groups: floors first, then largest GPU deficit.

    Deterministic greedy — servers in (gpu_count desc, index) order, ties
    between groups broken by group index — so the slices are a pure
    function of (topology, weights, floors).
    """
    k = len(weights)
    total_gpus = sum(p.n_gpus for p in placements)
    wsum = sum(weights) or 1.0
    targets = [total_gpus * w / wsum for w in weights]
    got = [0] * k
    out: list[list[int]] = [[] for _ in range(k)]
    for placement in sorted(placements, key=lambda p: (-p.n_gpus, p.index)):
        under_floor = [
            (floors[g] - got[g], -g) for g in range(k) if got[g] < floors[g]
        ]
        if under_floor:
            pick = -max(under_floor)[1]
        else:
            pick = max(range(k), key=lambda g: (targets[g] - got[g], -g))
        out[pick].append(placement.index)
        got[pick] += placement.n_gpus
    return [tuple(sorted(indices)) for indices in out]


def _pack_tenants(weights: list[float], n_groups: int) -> list[list[int]]:
    """Deal tenant indices into ``n_groups`` balanced groups (LPT greedy).

    Tenants in (traffic weight desc, spec index) order each join the
    currently lightest group (ties to the lowest group index) — the
    classic longest-processing-time heuristic, and a pure function of
    the weights, so the grouping is identical in every process.  With
    ``n_groups == len(weights)`` this degenerates to the historical
    one-tenant-per-group layout in spec order.
    """
    k = len(weights)
    if n_groups == k:
        return [[i] for i in range(k)]
    membership: list[list[int]] = [[] for _ in range(n_groups)]
    load = [0.0] * n_groups
    for i in sorted(range(k), key=lambda i: (-weights[i], i)):
        g = min(range(n_groups), key=lambda j: (load[j], j))
        membership[g].append(i)
        load[g] += weights[i]
    return [sorted(members) for members in membership]


def partition_scenario(spec: ScenarioSpec, seed: int = 0) -> ShardPlan:
    """Decompose a scenario into tenant-affine shard groups.

    One group per tenant when the cluster can give every tenant a
    ``MIN_SERVERS_PER_GROUP`` slice (the historical layout).  Fleets too
    large for that — the production-scale trace replays, hundreds of
    tenants on tens of servers — *pack* tenants into as many groups as
    the cluster supports, balanced by traffic weight (for azure2019
    tenants the segment ``qps`` carries the trace's invocation volume,
    so slices follow the trace).  Packing only engages when every group
    still multiplexes at least two tenants; awkward in-between fleets
    keep the historical single-shard fallback.

    Returns a single-group plan (with ``fallback`` set) when the
    scenario cannot be partitioned; callers then run the monolithic
    driver.
    """
    if spec.qos_enabled:
        return _fallback(spec, seed, "qos control plane is fleet-global")
    if len(spec.models) < 2:
        return _fallback(spec, seed, "single-tenant fleet")
    placements = server_placements(spec.cluster)
    k = len(spec.models)
    max_groups = len(placements) // MIN_SERVERS_PER_GROUP
    if len(placements) >= MIN_SERVERS_PER_GROUP * k:
        n_groups = k
    elif max_groups >= 2 and k >= 2 * max_groups:
        n_groups = max_groups
    else:
        return _fallback(
            spec,
            seed,
            f"cluster too small to split ({len(placements)} servers "
            f"for {k} tenants)",
        )

    weights = [_traffic_weight(m) for m in spec.models]
    membership = _pack_tenants(weights, n_groups)
    group_weights = [sum(weights[i] for i in members) for members in membership]
    # A group's floor holds the largest single replica among its
    # tenants; the weight-proportional deal covers the rest.
    group_floors = [
        max(_min_gpus(spec.models[i]) for i in members)
        for members in membership
    ]
    slices = _assign_servers(placements, group_weights, group_floors)

    # Scripted events follow their target tenant; fleet-wide events
    # (model=None) deal round-robin over groups by script position — a
    # function of the spec alone, so the assignment is worker-invariant.
    events_by_group: list[list] = [[] for _ in range(n_groups)]
    model_group = {
        spec.models[i].model: g
        for g, members in enumerate(membership)
        for i in members
    }
    for i, event in enumerate(spec.events):
        g = (
            model_group[event.model]
            if event.model is not None
            else i % n_groups
        )
        events_by_group[g].append(event)

    duration = spec.duration
    groups = []
    for g, members in enumerate(membership):
        scripts = tuple(spec.models[i] for i in members)
        names = tuple(s.model for s in scripts)
        # Each group gets a ceil-proportional slice of the backlog cap,
        # so the summed cap is never below the parent's.
        cap = (
            int(math.ceil(spec.admission_cap * len(members) / k))
            if spec.admission_cap
            else 0
        )
        sub = replace(
            spec,
            models=scripts,
            events=tuple(events_by_group[g]),
            admission_cap=cap,
            min_duration=duration,
        )
        groups.append(
            ShardGroup(
                index=g,
                models=names,
                spec=sub,
                server_indices=slices[g],
                seed=_shard_seed(seed, names),
            )
        )
    return ShardPlan(scenario=spec.name, groups=tuple(groups))


def _fallback(spec: ScenarioSpec, seed: int, reason: str) -> ShardPlan:
    group = ShardGroup(
        index=0,
        models=spec.model_names,
        spec=spec,
        server_indices=tuple(
            p.index for p in server_placements(spec.cluster)
        ),
        seed=seed,
    )
    return ShardPlan(scenario=spec.name, groups=(group,), fallback=reason)


# ----------------------------------------------------------------------
# Group execution (one driver per group)
# ----------------------------------------------------------------------
@dataclass
class ShardSlice:
    """One shard's picklable contribution to the merged report.

    Carries the shard's own :class:`ScenarioReport` plus the *raw* merge
    inputs (epoch-filtered populations and utilization integrals), so the
    merged aggregate is computed exactly — not approximated from
    per-shard summaries.
    """

    index: int
    models: tuple[str, ...]
    report: ScenarioReport
    engine_events: int = 0
    populations: Populations = field(default_factory=Populations)
    gpu_busy_seconds: float = 0.0
    gpu_holding_integral: float = 0.0
    resident: int = 0


def _run_group(item: tuple[ShardGroup, ScenarioCase]) -> ShardSlice:
    """Run one shard group to quiesce (module-level: it crosses the pool).

    The group's case is the parent's (system, trace, overrides) bound to
    the group's sub-spec and seed."""
    group, case = item
    driver = ScenarioDriver(
        replace(case, spec=group.spec, seed=group.seed, shards=0),
        server_indices=group.server_indices,
    )
    return _build_slice(group, driver, driver.run())


def _build_slice(
    group: ShardGroup, driver: ScenarioDriver, report: ScenarioReport
) -> ShardSlice:
    system = driver.system
    # Requests still parked in an accounted queue at quiesce (the same
    # residency the auditor's request-conservation invariant credits):
    # baselines that shed load by reclamation legitimately strand work in
    # router queues, and the cross-shard balance must not count it lost.
    resident = sum(
        len(r.pending) for r in system.all_routers().values()
    ) + sum(
        len(rep.batcher) + rep.inflight_requests
        for rep in system.all_replicas()
    )
    return ShardSlice(
        index=group.index,
        models=group.models,
        report=report,
        engine_events=driver.sim.events_processed,
        # Epoch-filtered like the collector's summarize: pre-epoch warm-up
        # deploys/refactors stay out of the merged accounting.
        populations=system.metrics.populations(driver.epoch),
        gpu_busy_seconds=sum(g.busy_seconds for g in system.ctx.cluster.gpus),
        gpu_holding_integral=system._gpu_holding_integral,
        resident=resident,
    )


# ----------------------------------------------------------------------
# Case execution + merge
# ----------------------------------------------------------------------
def run_sharded_case(case: ScenarioCase) -> ScenarioReport:
    """Run one case through the shard partitioner and merge the results.

    ``case.shards`` is the worker-process budget: the groups are mapped
    over a pool of at most that many workers (one worker runs them
    in-process).  The group decomposition comes from
    :func:`partition_scenario` and is identical for every worker count,
    so reports at ``--shards 1/2/4`` are byte-identical.
    """
    plan = partition_scenario(case.spec, case.seed)
    if not plan.sharded:
        report = ScenarioDriver(replace(case, shards=0)).run()
        report.shards = 1
        report.shard_fallback = plan.fallback
        return report
    runner = ExperimentRunner(
        jobs=min(case.shards, len(plan.groups)), use_cache=False
    )
    try:
        slices = runner.map(
            _run_group,
            [(group, case) for group in plan.groups],
        )
    finally:
        runner.close()
    return merge_shard_reports(case, plan, slices)


def merge_shard_reports(
    case: ScenarioCase, plan: ShardPlan, slices: list[ShardSlice]
) -> ScenarioReport:
    """Fold per-shard slices into one fleet-level :class:`ScenarioReport`.

    Population statistics (latency percentiles, queue-time means, queue
    lengths, stall recoveries) are recomputed over the *concatenated*
    per-shard populations — shard-index order, so the result is a pure
    function of the plan.  Counters sum; utilization merges via the
    summed busy-seconds and GPU-holding integrals, exactly as the
    monolithic ``summarize`` computes them.
    """
    spec = case.spec
    slices = sorted(slices, key=lambda s: s.index)
    reports = [s.report for s in slices]
    measured = spec.measured

    violations: list[Violation] = []
    for s in slices:
        for v in s.report.violations:
            violations.append(
                Violation(v.invariant, f"[shard {s.index}] {v.detail}")
            )
    offered = sum(r.offered for r in reports)
    completed = sum(r.completed for r in reports)
    shed = sum(r.shed for r in reports)
    resident = sum(s.resident for s in slices)
    # The one invariant only the merge layer can see: every generated
    # request is accounted for *across* shards at quiesce — completed
    # exactly once, shed at a gate, or still resident in an accounted
    # queue (the same balance the per-shard auditor enforces locally).
    if offered != completed + shed + resident:
        violations.append(
            Violation(
                "cross-shard-conservation",
                f"offered {offered} != completed {completed} + shed {shed} "
                f"+ resident {resident} across {len(slices)} shards "
                f"at quiesce",
            )
        )

    events: dict[str, int] = {}
    for r in reports:
        for key, count in r.events.items():
            events[key] = events.get(key, 0) + count

    per_model: dict[str, RunSummary] = {}
    tenants: dict[str, TenantQoS] = {}
    for name in spec.model_names:
        for r in reports:
            if name in r.per_model:
                per_model[name] = r.per_model[name]
                tenants[name] = r.tenants[name]

    # Traced runs: merge the per-shard span trees and recorder events,
    # re-tagging each row with its shard of origin (provenance survives
    # the merge; ordering is a pure function of the plan).
    traces: list = []
    fleet_events: list = []
    if any(s.report.traces or s.report.fleet_events for s in slices):
        from repro.observability import merge_shard_traces

        traces, fleet_events = merge_shard_traces(
            [(s.index, s.report.traces, s.report.fleet_events) for s in slices]
        )

    return ScenarioReport(
        scenario=spec.name,
        system=case.system,
        seed=case.seed,
        violations=violations,
        aggregate=_merge_aggregate(case.system, slices, measured),
        per_model=per_model,
        offered=offered,
        completed=completed,
        shed=shed,
        events=dict(sorted(events.items())),
        horizon=spec.horizon,
        qos_enabled=spec.qos_enabled,
        tenants=tenants,
        shards=len(slices),
        shard_fallback=plan.fallback,
        engine_events=sum(s.engine_events for s in slices),
        traces=traces,
        fleet_events=fleet_events,
    )


def _merge_aggregate(
    system: str, slices: list[ShardSlice], measured: float
) -> RunSummary:
    holding = sum(s.gpu_holding_integral for s in slices)
    avg_gpus = holding / measured if measured > 0 else 0.0
    return summarize_populations(
        system,
        measured,
        Populations.merge([s.populations for s in slices]),
        gpu_busy_seconds=sum(s.gpu_busy_seconds for s in slices),
        gpus_used=max(round(avg_gpus), 1),
    )
