"""Direct fuzzing of the transfer/migration layer.

The chaos audit exercises migration only as a side effect of refactors;
this module fuzzes the planning and link layers *directly*, where the
scheduling invariants can be stated exactly:

:func:`check_schedule` (per :class:`~repro.transfer.migration.MigrationSchedule`)
    * **byte conservation** — every input item is scheduled exactly once
      and the schedule's total bytes equal the input's;
    * **channel exclusivity** — no two transfers overlap on any NIC
      direction or PCIe channel (channels are single-occupancy);
    * **makespan bounds** — the makespan is at least the longest single
      stream and the busiest channel's total occupancy (lower bounds),
      and at most the all-serial time (upper bound);
    * **KV-before-activate** — with ``kv_first`` (the Fig. 6 sequence),
      on every channel all KV shards complete before any parameter load
      starts, so the switchover pause is never gated behind bulk loads.

:func:`check_method_selection` (the §8 DataMover hierarchy)
    * **RDMA preference** — a cross-server stream whose endpoints both
      have RDMA uses RDMA, never the sendfile fallback;
    * **fallback ordering** — same-server streams stay on the local
      PCIe path, RDMA-less pairs fall back to sendfile, and NCCL appears
      only under ``force_nccl`` (the ablation knob);
    * **costs honoured** — each transfer's scheduled slot equals the
      chosen method's setup latency plus bytes over *that method's*
      bandwidth, recomputed independently from the cost table (a plan
      that claims RDMA but schedules at sendfile speed is caught).

:func:`check_inplace_delta` (the executor's retention rule, in the
fine-unit byte view :func:`plan_inplace_delta` gives it)
    * **only the delta moves** — a reused stage's parameter traffic is
      exactly its new span minus the bytes already resident (restated
      here by set arithmetic over fine units, independent of
      :func:`~repro.refactoring.executor.reuse_plan`), and KV moves only
      for units that change devices;
    * **conservation** — every fine unit lands in exactly one new stage,
      so resident + delta bytes across stages equal the total, and KV
      totals are preserved;
    * **reuse exclusivity** — an old stage's device is claimed by at
      most one new stage, and only when their leading units align;
    * **detection power** — a poisoned plan (a reused stage re-moving
      its resident bytes) must be flagged, else the oracle itself is
      broken (``fuzz-detection-power``).
    The planned deltas then flow through :class:`MigrationPlanner` and
    :func:`check_schedule`, so the resize traffic also honours channel
    exclusivity and the makespan bounds.  :func:`check_zoo_ladders` runs
    the same oracle over every rung pair of the zoo models' real ladders.

:func:`fuzz_link_case` (for :class:`~repro.transfer.links.FairShareLink`)
    * every transfer completes, exactly once;
    * no transfer beats its physics: duration >= latency +
      bytes / min(bandwidth, rate cap);
    * the link conserves work: busy time covers the bytes moved;
    * the lazily kept rates follow the two-pass rule at every
      completion (the auditor's ``link-rates`` check), also in one
      many-stream round per case (hundreds of concurrent streams).

Cases are seeded and picklable; ``fuzz_seeds`` fans them out through the
parallel experiment runner (``repro fuzz --seeds N``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.transfer.datamover import DataMover, TransferCosts, TransferMethod
from repro.transfer.links import FairShareLink, LinkSpec, MB
from repro.transfer.migration import (
    Endpoint,
    ItemKind,
    MigrationItem,
    MigrationPlanner,
    MigrationSchedule,
    channels_of,
)
from repro.validation.auditor import Violation, link_rate_problems

_EPS = 1e-6


@dataclass(frozen=True)
class MigrationFuzzCase:
    """One seeded fuzz case: several random item sets + link workloads."""

    seed: int = 0
    rounds: int = 25  # independent item sets per case
    max_items: int = 40
    max_servers: int = 6
    link_rounds: int = 8  # FairShareLink workloads per case
    inplace_rounds: int = 8  # random in-place resize schedules per case


@dataclass
class MigrationFuzzReport:
    case: MigrationFuzzCase
    violations: list[Violation] = field(default_factory=list)
    schedules: int = 0
    items: int = 0
    transfers: int = 0
    inplace: int = 0  # in-place resize schedules fuzzed

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------------
# Schedule invariants
# ----------------------------------------------------------------------
def check_schedule(
    items: list[MigrationItem],
    schedule: MigrationSchedule,
    *,
    kv_first: bool = True,
) -> list[Violation]:
    """All scheduling invariants for one planned transition."""
    out: list[Violation] = []
    transfers = schedule.transfers

    # Byte conservation: the schedule carries exactly the input items
    # (identity-matched — no item dropped, duplicated, or substituted).
    scheduled = sorted(id(t.item) for t in transfers)
    expected = sorted(id(i) for i in items)
    if scheduled != expected:
        out.append(
            Violation(
                "migration-conservation",
                f"scheduled {len(transfers)} transfer(s) for "
                f"{len(items)} item(s) (or items duplicated/replaced)",
            )
        )
    total_in = sum(i.nbytes for i in items)
    if abs(schedule.total_bytes - total_in) > max(total_in, 1.0) * 1e-9:
        out.append(
            Violation(
                "migration-conservation",
                f"total bytes {schedule.total_bytes} != input {total_in}",
            )
        )

    # Per-transfer sanity.
    for t in transfers:
        if t.start < -_EPS:
            out.append(
                Violation(
                    "migration-timing", f"{t.item.tag}: negative start {t.start}"
                )
            )
        if abs((t.end - t.start) - t.plan.duration) > _EPS:
            out.append(
                Violation(
                    "migration-timing",
                    f"{t.item.tag}: slot {t.end - t.start} != plan "
                    f"duration {t.plan.duration}",
                )
            )

    # Channel exclusivity + KV-before-params per channel.
    by_channel: dict[str, list] = {}
    for t in transfers:
        for channel in channels_of(t.item):
            by_channel.setdefault(channel, []).append(t)
    for channel, slots in by_channel.items():
        slots.sort(key=lambda t: (t.start, t.end))
        for a, b in zip(slots, slots[1:]):
            if b.start < a.end - _EPS:
                out.append(
                    Violation(
                        "migration-channel-overlap",
                        f"{channel}: {a.item.tag} [{a.start:.6f},{a.end:.6f}) "
                        f"overlaps {b.item.tag} [{b.start:.6f},{b.end:.6f})",
                    )
                )
        if kv_first:
            kv_end = max(
                (t.end for t in slots if t.item.kind is ItemKind.KV),
                default=None,
            )
            params_start = min(
                (t.start for t in slots if t.item.kind is ItemKind.PARAMS),
                default=None,
            )
            if (
                kv_end is not None
                and params_start is not None
                and params_start < kv_end - _EPS
            ):
                out.append(
                    Violation(
                        "migration-kv-ordering",
                        f"{channel}: params load starts at {params_start:.6f} "
                        f"before KV completes at {kv_end:.6f}",
                    )
                )

    # Makespan bounds.
    makespan = schedule.makespan
    longest = max((t.plan.duration for t in transfers), default=0.0)
    if makespan < longest - _EPS:
        out.append(
            Violation(
                "migration-makespan",
                f"makespan {makespan} below longest stream {longest}",
            )
        )
    busiest = schedule.busiest_channel_time()
    if makespan < busiest - _EPS:
        out.append(
            Violation(
                "migration-makespan",
                f"makespan {makespan} below busiest channel {busiest}",
            )
        )
    if makespan > schedule.serial_time + _EPS:
        out.append(
            Violation(
                "migration-makespan",
                f"makespan {makespan} exceeds serial time "
                f"{schedule.serial_time} (worse than no parallelism)",
            )
        )
    return out


# ----------------------------------------------------------------------
# Method-selection invariants (the §8 DataMover hierarchy)
# ----------------------------------------------------------------------
def expected_method(item: MigrationItem, *, force_nccl: bool = False) -> TransferMethod:
    """The §8 decision procedure, restated independently of DataMover.

    ``force_nccl`` wins (the ablation), same-server stays local, RDMA is
    preferred whenever *both* endpoints support it, and sendfile is the
    only remaining fallback.  Keeping this a second implementation is the
    point: a regression in the production hierarchy (e.g. falling back to
    sendfile despite RDMA on both ends) disagrees with it.
    """
    if force_nccl:
        return TransferMethod.NCCL
    if item.same_server:
        return TransferMethod.LOCAL
    if item.src.rdma and item.dst.rdma:
        return TransferMethod.RDMA
    return TransferMethod.SENDFILE


def _method_costs(costs: TransferCosts, method: TransferMethod) -> tuple[float, float]:
    """(setup, bandwidth) of ``method`` in the given cost table."""
    return {
        TransferMethod.LOCAL: (costs.local_setup, costs.local_bandwidth),
        TransferMethod.RDMA: (costs.rdma_setup, costs.rdma_bandwidth),
        TransferMethod.SENDFILE: (costs.sendfile_setup, costs.sendfile_bandwidth),
        TransferMethod.NCCL: (costs.nccl_setup, costs.nccl_bandwidth),
    }[method]


def check_method_selection(
    items: list[MigrationItem],
    schedule: MigrationSchedule,
    *,
    costs: TransferCosts,
    force_nccl: bool = False,
) -> list[Violation]:
    """Method-selection invariants for one planned transition.

    Items absent from the schedule are ignored here —
    :func:`check_schedule`'s conservation check owns that failure mode.
    """
    out: list[Violation] = []
    plans = {id(t.item): t for t in schedule.transfers}
    for item in items:
        scheduled = plans.get(id(item))
        if scheduled is None:
            continue
        plan = scheduled.plan
        expected = expected_method(item, force_nccl=force_nccl)
        if plan.method is not expected:
            out.append(
                Violation(
                    "migration-method",
                    f"{item.tag}: chose {plan.method.value}, hierarchy "
                    f"demands {expected.value} (same_server="
                    f"{item.same_server}, rdma={item.src.rdma}/"
                    f"{item.dst.rdma}, force_nccl={force_nccl})",
                )
            )
            continue
        setup, bandwidth = _method_costs(costs, plan.method)
        if plan.bandwidth != bandwidth or plan.setup_time != setup:
            out.append(
                Violation(
                    "migration-method-costs",
                    f"{item.tag}: plan carries setup {plan.setup_time}/"
                    f"bw {plan.bandwidth}, the {plan.method.value} cost "
                    f"table says {setup}/{bandwidth}",
                )
            )
            continue
        # The chosen method's bandwidth must be what the schedule
        # *actually budgets*: slot length == setup + bytes / bandwidth.
        floor = setup + item.nbytes / bandwidth
        slot = scheduled.end - scheduled.start
        if abs(slot - floor) > max(floor, 1.0) * 1e-9 + _EPS:
            out.append(
                Violation(
                    "migration-method-costs",
                    f"{item.tag}: scheduled slot {slot:.9f}s but "
                    f"{plan.method.value} physics give {floor:.9f}s",
                )
            )
    return out


# ----------------------------------------------------------------------
# In-place resize invariants (the executor's delta planning math)
# ----------------------------------------------------------------------
def random_groups(rng, n_units: int) -> list[tuple[int, int]]:
    """A random contiguous partition of ``range(n_units)`` into stages."""
    n_stages = int(rng.integers(1, n_units + 1))
    cuts = sorted(
        rng.choice(range(1, n_units), size=n_stages - 1, replace=False).tolist()
        if n_stages > 1
        else []
    )
    bounds = [0, *cuts, n_units]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def plan_inplace_delta(
    old_groups: Sequence[tuple[int, int]],
    new_groups: Sequence[tuple[int, int]],
    unit_param_bytes: Sequence[float],
    unit_kv_bytes: Sequence[float],
) -> list[dict]:
    """The fine-unit byte view of the executor's retention rule.

    Applies :func:`~repro.refactoring.executor.reuse_plan` (the rule the
    executor plans with) to per-fine-unit byte vectors.  Returns one dict
    per new stage: whether it reuses its leading owner's device, the
    parameter bytes resident there, the bytes that must move (the delta
    beyond what is resident), and the KV bytes that change devices.
    """
    from repro.refactoring.executor import reuse_plan

    out: list[dict] = []
    for (lo, hi), (owner, reused) in zip(
        new_groups, reuse_plan(old_groups, new_groups)
    ):
        new_params = float(sum(unit_param_bytes[lo:hi]))
        stage_kv = float(sum(unit_kv_bytes[lo:hi]))
        stay_hi = min(hi, old_groups[owner][1]) if reused else lo
        resident = float(sum(unit_param_bytes[lo:stay_hi]))
        kv_stays = float(sum(unit_kv_bytes[lo:stay_hi]))
        out.append(
            {
                "reused": reused,
                "owner": owner,
                "resident_param_bytes": resident,
                "param_delta_bytes": max(new_params - resident, 0.0),
                "kv_moved_bytes": max(stage_kv - kv_stays, 0.0),
                "kv_total_bytes": stage_kv,
            }
        )
    return out


def check_inplace_delta(
    old_groups: list[tuple[int, int]],
    new_groups: list[tuple[int, int]],
    unit_params: list[float],
    unit_kv: list[float],
    deltas: list[dict],
) -> list[Violation]:
    """Oracle for one in-place delta plan, by set arithmetic.

    Restates the only-the-delta-moves rule over explicit fine-unit sets
    (``stay = new span ∩ owner's old span``), independently of the
    executor's slice sums — a regression that re-moves resident bytes or
    drops a unit disagrees with it.
    """
    out: list[Violation] = []
    if len(deltas) != len(new_groups):
        out.append(
            Violation(
                "inplace-delta",
                f"plan has {len(deltas)} stage(s) for "
                f"{len(new_groups)} new group(s)",
            )
        )
        return out
    claimed: set[int] = set()
    resident_total = delta_total = kv_seen = 0.0
    for j, ((lo, hi), d) in enumerate(zip(new_groups, deltas)):
        span = set(range(lo, hi))
        stage_params = sum(unit_params[f] for f in span)
        stage_kv = sum(unit_kv[f] for f in span)
        owner = next(j for j, (a, b) in enumerate(old_groups) if a <= lo < b)
        can_reuse = old_groups[owner][0] == lo and owner not in claimed
        if d["reused"] and not can_reuse:
            out.append(
                Violation(
                    "inplace-delta",
                    f"stage {j} claims reuse of old stage {owner} but its "
                    f"leading unit is misaligned or the device is taken",
                )
            )
        stay: set[int] = set()
        if d["reused"] and can_reuse:
            claimed.add(owner)
            stay = span & set(range(*old_groups[owner]))
        resident = sum(unit_params[f] for f in stay)
        kv_stay = sum(unit_kv[f] for f in stay)
        eps = max(stage_params, 1.0) * 1e-9
        kv_eps = max(stage_kv, 1.0) * 1e-9
        if abs(d["resident_param_bytes"] - resident) > eps:
            out.append(
                Violation(
                    "inplace-delta",
                    f"stage {j}: claims {d['resident_param_bytes']:.0f} "
                    f"resident bytes, the staying units hold {resident:.0f}",
                )
            )
        if abs(d["param_delta_bytes"] - (stage_params - resident)) > eps:
            out.append(
                Violation(
                    "inplace-delta",
                    f"stage {j}: moves {d['param_delta_bytes']:.0f} param "
                    f"bytes, the delta beyond resident is "
                    f"{stage_params - resident:.0f} — only the delta moves",
                )
            )
        if abs(d["kv_moved_bytes"] - (stage_kv - kv_stay)) > kv_eps:
            out.append(
                Violation(
                    "inplace-delta",
                    f"stage {j}: moves {d['kv_moved_bytes']:.0f} KV bytes, "
                    f"units changing devices hold {stage_kv - kv_stay:.0f}",
                )
            )
        if abs(d["kv_total_bytes"] - stage_kv) > kv_eps:
            out.append(
                Violation(
                    "inplace-delta",
                    f"stage {j}: KV total {d['kv_total_bytes']:.0f} != "
                    f"span total {stage_kv:.0f}",
                )
            )
        resident_total += d["resident_param_bytes"]
        delta_total += d["param_delta_bytes"]
        kv_seen += d["kv_total_bytes"]
    total_params = sum(unit_params)
    total_kv = sum(unit_kv)
    if abs((resident_total + delta_total) - total_params) > max(
        total_params, 1.0
    ) * 1e-9:
        out.append(
            Violation(
                "inplace-delta",
                f"resident {resident_total:.0f} + delta {delta_total:.0f} "
                f"!= total params {total_params:.0f} — a unit was dropped "
                f"or double-counted",
            )
        )
    if abs(kv_seen - total_kv) > max(total_kv, 1.0) * 1e-9:
        out.append(
            Violation(
                "inplace-delta",
                f"KV totals {kv_seen:.0f} != input {total_kv:.0f}",
            )
        )
    return out


def fuzz_inplace_round(rng) -> tuple[list[Violation], int]:
    """One random in-place resize: delta plan, oracle, schedule, poison.

    Returns (violations, migration items scheduled).
    """
    out: list[Violation] = []
    n_units = int(rng.integers(4, 25))
    unit_params = [
        float(rng.lognormal(mean=0.0, sigma=1.0) * 64 * MB)
        for _ in range(n_units)
    ]
    unit_kv = [
        float(rng.lognormal(mean=0.0, sigma=1.0) * 8 * MB)
        for _ in range(n_units)
    ]
    old_groups = random_groups(rng, n_units)
    new_groups = random_groups(rng, n_units)
    deltas = plan_inplace_delta(old_groups, new_groups, unit_params, unit_kv)
    out += check_inplace_delta(
        old_groups, new_groups, unit_params, unit_kv, deltas
    )

    # The delta traffic through the real planner: the resize's parameter
    # and KV movement must honour channel exclusivity and the makespan
    # bounds like any other migration.
    host = Endpoint(server_id="host", gpu_id="host", rdma=True)
    gpus = [
        Endpoint(
            server_id=f"s{j // 4}", gpu_id=f"s{j // 4}g{j % 4}", rdma=True
        )
        for j in range(max(len(old_groups), len(new_groups)))
    ]
    items: list[MigrationItem] = []
    for j, d in enumerate(deltas):
        if d["param_delta_bytes"] > 0:
            items.append(
                MigrationItem(
                    ItemKind.PARAMS,
                    d["param_delta_bytes"],
                    host,
                    gpus[j],
                    tag=f"delta-params{j}",
                )
            )
        if d["kv_moved_bytes"] > 0:
            items.append(
                MigrationItem(
                    ItemKind.KV,
                    d["kv_moved_bytes"],
                    gpus[d["owner"]],
                    gpus[j],
                    tag=f"delta-kv{j}",
                )
            )
    schedule = MigrationPlanner(DataMover(TransferCosts())).schedule(
        items, kv_first=True
    )
    out += check_schedule(items, schedule, kv_first=True)

    # Detection power: a plan that re-moves a reused stage's resident
    # bytes (the bug in-place transitions exist to avoid) must be caught.
    reusable = [
        j
        for j, d in enumerate(deltas)
        if d["reused"] and d["resident_param_bytes"] > 0
    ]
    if reusable:
        j = reusable[int(rng.integers(len(reusable)))]
        poisoned = [dict(d) for d in deltas]
        poisoned[j]["param_delta_bytes"] += poisoned[j]["resident_param_bytes"]
        if not check_inplace_delta(
            old_groups, new_groups, unit_params, unit_kv, poisoned
        ):
            out.append(
                Violation(
                    "fuzz-detection-power",
                    f"oracle missed a poisoned plan that re-moves stage "
                    f"{j}'s {poisoned[j]['resident_param_bytes']:.0f} "
                    f"resident bytes",
                )
            )
    return out, len(items)


# ----------------------------------------------------------------------
# Random item sets
# ----------------------------------------------------------------------
def check_zoo_ladders() -> tuple[list[Violation], int]:
    """:func:`check_inplace_delta` over every rung pair of the zoo models'
    real ladders — the groups the executor actually plans over.

    Fine-unit bytes come from each ladder's finest plan (parameter bytes
    and KV bytes per token of every fine stage).  Returns (violations,
    rung pairs checked).
    """
    from repro.core.context import get_ladder
    from repro.core.flexpipe import STAGE_COUNTS
    from repro.models.costs import CostModel
    from repro.models.zoo import MODEL_ZOO

    out: list[Violation] = []
    pairs = 0
    cost_model = CostModel()
    for spec in MODEL_ZOO.values():
        ladder = get_ladder(spec, cost_model, STAGE_COUNTS)
        fine = ladder.fine_plan.stages
        unit_params = [s.param_bytes for s in fine]
        unit_kv = [s.profile.kv_bytes_per_token for s in fine]
        for a in ladder.stage_counts:
            for b in ladder.stage_counts:
                old, new = ladder.rung(a).groups, ladder.rung(b).groups
                deltas = plan_inplace_delta(old, new, unit_params, unit_kv)
                out += [
                    Violation(v.invariant, f"{spec.name} {a}->{b}: {v.detail}")
                    for v in check_inplace_delta(
                        old, new, unit_params, unit_kv, deltas
                    )
                ]
                pairs += 1
    return out, pairs


def random_costs(rng) -> TransferCosts:
    """A random (but physical) transfer cost table spanning the §8 regimes."""
    gb = 1024 * MB
    return TransferCosts(
        rdma_setup=float(rng.uniform(50e-6, 500e-6)),
        rdma_bandwidth=float(rng.uniform(5.0, 20.0)) * gb,
        sendfile_setup=float(rng.uniform(0.5e-3, 5e-3)),
        sendfile_bandwidth=float(rng.uniform(2.0, 10.0)) * gb,
        nccl_setup=float(rng.uniform(1.0, 5.0)),
        nccl_bandwidth=float(rng.uniform(5.0, 20.0)) * gb,
        local_setup=float(rng.uniform(5e-6, 50e-6)),
        local_bandwidth=float(rng.uniform(10.0, 40.0)) * gb,
    )


def random_items(rng, *, max_items: int, max_servers: int) -> list[MigrationItem]:
    """A random (possibly degenerate) migration item set."""
    n_servers = int(rng.integers(1, max_servers + 1))
    endpoints = [
        Endpoint(
            server_id=f"s{s}",
            gpu_id=f"s{s}g{g}",
            rdma=bool(rng.random() < 0.7),
        )
        for s in range(n_servers)
        for g in range(int(rng.integers(1, 5)))
    ]
    items = []
    for i in range(int(rng.integers(0, max_items + 1))):
        src = endpoints[int(rng.integers(len(endpoints)))]
        dst = endpoints[int(rng.integers(len(endpoints)))]
        kind = ItemKind.KV if rng.random() < 0.5 else ItemKind.PARAMS
        # Heavy-tailed sizes spanning the §8 method thresholds, plus the
        # occasional zero-byte stream (metadata-only, pure latency).
        nbytes = 0.0 if rng.random() < 0.05 else float(
            rng.lognormal(mean=0.0, sigma=2.5) * 64 * MB
        )
        items.append(
            MigrationItem(kind, nbytes, src, dst, tag=f"{kind.value}{i}")
        )
    return items


def fuzz_migration_case(case: MigrationFuzzCase) -> MigrationFuzzReport:
    """Run one seeded fuzz case over planner and link layers."""
    report = MigrationFuzzReport(case=case)
    try:
        rng = RandomStreams(case.seed).stream("migration-fuzz")
        for _ in range(case.rounds):
            items = random_items(
                rng, max_items=case.max_items, max_servers=case.max_servers
            )
            kv_first = bool(rng.random() < 0.5)
            # A third of the rounds randomise the cost table: the
            # bandwidth-actually-used check must hold for *any* costs,
            # not just the defaults it could have been hard-coded to.
            costs = (
                random_costs(rng) if rng.random() < 1 / 3 else TransferCosts()
            )
            planner = MigrationPlanner(
                DataMover(costs), force_nccl=bool(rng.random() < 0.2)
            )
            schedule = planner.schedule(items, kv_first=kv_first)
            report.schedules += 1
            report.items += len(items)
            report.violations += check_schedule(
                items, schedule, kv_first=kv_first
            )
            report.violations += check_method_selection(
                items, schedule, costs=costs, force_nccl=planner.force_nccl
            )
        link_rng = RandomStreams(case.seed).stream("link-fuzz")
        for _ in range(case.link_rounds):
            report.violations += fuzz_link_case(link_rng)
            report.transfers += 1
        # One many-stream round, on its own stream so that the other
        # rounds draw the same cases as before it existed.
        many_rng = RandomStreams(case.seed).stream("link-fuzz-many")
        report.violations += fuzz_link_case(many_rng, streams=(300, 800))
        report.transfers += 1
        # Own stream: the migration/link rounds above draw byte-identical
        # sequences whether or not in-place fuzzing runs.
        inplace_rng = RandomStreams(case.seed).stream("inplace-fuzz")
        for _ in range(case.inplace_rounds):
            problems, n_items = fuzz_inplace_round(inplace_rng)
            report.violations += problems
            report.inplace += 1
            report.items += n_items
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        report.violations.append(
            Violation("harness-crash", f"{type(exc).__name__}: {exc}")
        )
    return report


# ----------------------------------------------------------------------
# FairShareLink fuzz
# ----------------------------------------------------------------------
def fuzz_link_case(rng, *, streams=(1, 24)) -> list[Violation]:
    """One random contention workload against a FairShareLink;
    ``streams`` bounds the transfer count (``[lo, hi)``)."""
    out: list[Violation] = []
    sim = Simulator()
    bandwidth = float(rng.uniform(0.5, 32.0)) * 1024 * MB
    latency = float(rng.choice([0.0, 1e-4, 1e-3]))
    link = FairShareLink(sim, LinkSpec("fuzz-link", bandwidth, latency))
    n = int(rng.integers(*streams))
    handles = []
    problems: list[str] = []

    def check_rates() -> None:
        if not problems:  # the first broken state is the reproducer
            problems.extend(link_rate_problems(link))

    for i in range(n):
        nbytes = 0.0 if rng.random() < 0.08 else float(
            rng.lognormal(mean=0.0, sigma=2.0) * 16 * MB
        )
        cap = (
            float(rng.uniform(0.05, 1.5)) * bandwidth
            if rng.random() < 0.5
            else None
        )
        start_at = float(rng.exponential(0.02))
        sim.schedule(
            start_at,
            lambda nb=nbytes, c=cap: handles.append(
                link.transfer(nb, check_rates, max_rate=c)
            ),
        )
    sim.run_until_idle()
    out += [Violation("link-rates", problem) for problem in problems]

    done = [h for h in handles if h.done]
    if len(done) != n:
        out.append(
            Violation(
                "link-completion",
                f"{n - len(done)} of {n} transfer(s) never completed",
            )
        )
    if link.transfers_completed != n:
        out.append(
            Violation(
                "link-completion",
                f"link counted {link.transfers_completed} completions "
                f"for {n} transfers",
            )
        )
    for h in done:
        floor_rate = min(h.max_rate or bandwidth, bandwidth)
        floor = latency + h.nbytes / floor_rate
        if h.duration is not None and h.duration < floor - 1e-6:
            out.append(
                Violation(
                    "link-physics",
                    f"transfer of {h.nbytes:.0f} B finished in "
                    f"{h.duration:.6f}s, below its floor {floor:.6f}s",
                )
            )
    # Work conservation: the busy span must cover the bytes at line rate.
    total = sum(h.nbytes for h in done)
    first = min((h.started_at for h in done), default=0.0)
    last = max((h.finished_at for h in done if h.finished_at is not None), default=0.0)
    if total > 0 and (last - first) < total / bandwidth - 1e-6:
        out.append(
            Violation(
                "link-physics",
                f"{total:.0f} B moved in {last - first:.6f}s — faster "
                f"than line rate {bandwidth:.0f} B/s allows",
            )
        )
    return out


# ----------------------------------------------------------------------
# Fan-out
# ----------------------------------------------------------------------
def fuzz_seeds(
    *,
    seeds: int = 10,
    runner=None,
    case_kwargs: dict | None = None,
) -> list[MigrationFuzzReport]:
    """Run the migration fuzzer over ``seeds`` seeded cases on ``runner``'s
    pool (default: an ``ExperimentRunner`` sized by ``REPRO_JOBS``)."""
    from repro.experiments.runner import ExperimentRunner

    kwargs = case_kwargs or {}
    cases = [MigrationFuzzCase(seed=seed, **kwargs) for seed in range(seeds)]
    return (runner or ExperimentRunner(use_cache=False)).map(fuzz_migration_case, cases)
