"""Conservation-law auditor for serving-system lifecycles.

The audited invariants (the checklist FlexPipe's no-drop/no-leak claim
reduces to):

``memory-accounting``
    Every live :class:`StageReservation` is backed by a matching
    allocation on its GPU (same id, same bytes), each GPU's cached
    ``serving_mem`` equals the sum over its allocations exactly, and no
    GPU's serving + background occupancy exceeds its capacity.
``reservation-footprint``
    Every unreleased reservation of a live replica's current chain holds
    at least its stage's share of ``plan.memory_per_stage(max_batch,
    kv)``: no resize or trim ever cuts a serving stage below what its
    batch needs.
``replica-state-machine``
    Replicas only move LOADING -> ACTIVE -> DRAINING -> RELEASED (with
    LOADING -> DRAINING as the cancel-during-load path).
``replica-anomalies``
    No replica recorded an accounting irregularity (negative chain
    counters, double chain retirement, illegal transitions).
``chain-accounting``
    At quiesce no chain holds phantom in-flight jobs, and released
    replicas hold no unreleased reservation on any chain, current or
    retired (retired chains release exactly once).
``router-reconciliation``
    Per router: ``submitted == routed + pending``; across layers, total
    routed equals total accepted by replicas.
``replica-conservation``
    Per replica: everything it accepted is completed or still queued/in
    flight — a replica cannot silently lose a routed request.
``router-hygiene``
    No router still lists a RELEASED replica (zombie gateway entries).
``queue-ledger``
    Each router's running queue sums equal a recompute over its
    accepting replicas (Σ ``queue_length`` and Σ ``len(batcher)``), every
    router feeds the system's fleet totals, and those totals equal the
    recompute over all routers' pending queues and accepting replicas.
``cv-window``
    Every workload monitor's running inter-arrival CV equals
    :func:`~repro.workloads.cv.interarrival_cv` (the Eq. 4 definition)
    over the same in-window stamps, within ``1e-9 × max(1, cv)``.
``link-rates``
    Every fair-share link (cluster storage, each server's PCIe/NIC/SSD,
    each rack's uplink) holds the two-pass rate rule recomputed from its
    in-flight caps: each stream's class (capped / own-paced / fair-paced)
    matches, its held rate is within ``1e-9`` relative, its remaining
    bytes lie in ``[0, bytes it joined with]``, and the held rates sum to
    at most ``bandwidth × (1 + 1e-9)``.
``request-conservation`` / ``completion-uniqueness``
    Every generated request is rejected at the admission gate, completed
    exactly once, or still resident in an accounted queue — none lost.
``admission-accounting`` / ``shed-accounting``
    Every gate's books balance — ``offered == admitted + shed`` at the
    aggregate level and per tenant (tenant triples must also sum to the
    aggregate) — and sheds are *exactly once*: the number of requests
    marked rejected equals the gates' shed count, and no shed request
    ever completes.
``share-cap``
    A tenant with a configured GPU share cap never reserves — not even
    transiently (the high-water mark is checked too) — more than its
    fraction of fleet GPU memory.  Under *elastic* contracts the bound
    loosens to cap + currently-borrowed bytes (the strict accounting
    moves to ``borrow-accounting``).
``borrow-accounting`` / ``borrow-reclaim-latency``
    Elastic contracts only: every borrower's ledger sum equals its
    overage above cap (so every borrowed byte is returned by quiesce —
    at quiesce the ledger is empty and per-tenant borrowed == returned
    totals), no tenant ever exceeded its cap beyond the ledger, an
    over-committed lender always has an open reclaim demand, and no
    demand stays open past the allocator's reclamation-latency bound.
``preemption-accounting``
    Every preempted pending deploy stays preempted (it never serves) and
    released all of its reservations exactly once; at quiesce no pending
    claim is still registered with the allocator.  Prepared-chain claims
    (an inflight refactoring's not-yet-switched target) are held to the
    same rules.
``prepared-claim``
    No refactor transition both switched in and was aborted — a
    cancelled preparation never serves.
``inplace-service-gap``
    A replica undergoing an in-place transition never left ACTIVE
    between the transition's start and its switch (no service gap).
``allocator-empty``
    After shutdown + quiesce the allocator holds no live reservation and
    no GPU carries a stage allocation (no leaked reservations).
``span-conservation``
    Traced runs only: every finalized request trace tiles its latency
    interval exactly — spans are contiguous, start at arrival and end at
    completion — so tail attribution accounts for every second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.cluster.allocator import _share_eps
from repro.pipeline.replica import (
    ALLOWED_TRANSITIONS,
    PipelineReplica,
    ReplicaState,
)
from repro.workloads.cv import interarrival_cv

# Capacity comparisons happen at the 10^10-byte scale, where one float64
# ulp is ~1.5e-5 bytes — an exactly-full GPU (the reclamation blocker
# reserves precisely free_memory) can overshoot a tighter epsilon.
_CAPACITY_EPS = 1e-3


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to reproduce it."""

    invariant: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.invariant}] {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised by :meth:`InvariantAuditor.assert_clean`."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        lines = "\n".join(f"  {v}" for v in violations)
        super().__init__(f"{len(violations)} invariant violation(s):\n{lines}")


class InvariantAuditor:
    """Checks conservation laws over one serving system.

    ``generators`` (workload generators) and ``gates`` (admission gates)
    are optional; when given, request conservation is checked against the
    true generated population rather than the system's own offered count.
    """

    def __init__(self, system, *, generators: Iterable = (), gates: Iterable = ()):
        self.system = system
        self.generators = list(generators)
        self.gates = list(gates)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def routers(self) -> dict[str, object]:
        """All routers, including phase-disaggregated pools (DistServe)."""
        return self.system.all_routers()

    def replicas(self) -> list[PipelineReplica]:
        """Every replica the system ever created."""
        return self.system.all_replicas()

    @property
    def _allocator(self):
        return self.system.ctx.allocator

    @property
    def _cluster(self):
        return self.system.ctx.cluster

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def audit_running(self) -> list[Violation]:
        """The invariants that must hold at *any* instant mid-run.

        Illegal transitions are caught here through the anomaly log the
        replica records at the moment they happen; the full
        state-history replay is deferred to quiesce, keeping the per-tick
        cost linear in live state rather than in run length.
        """
        out: list[Violation] = []
        out += self._check_memory_accounting()
        out += self._check_reservation_footprint()
        out += self._check_anomalies()
        out += self._check_share_caps()
        out += self._check_borrow_accounting()
        out += self._check_queue_ledger()
        out += self._check_cv_window()
        out += self._check_link_rates()
        return out

    def audit_quiesce(self, *, expect_empty_allocator: bool = True) -> list[Violation]:
        """The full set, valid once the simulator has gone idle.

        ``expect_empty_allocator`` should be True when the system was
        shut down before quiescing (the no-leak invariant); pass False to
        audit a run that intentionally leaves replicas serving.
        """
        out = self.audit_running()
        out += self._check_state_machines()
        out += self._check_replica_conservation()
        out += self._check_chain_accounting()
        out += self._check_router_reconciliation()
        out += self._check_router_hygiene()
        out += self._check_request_conservation()
        out += self._check_admission_accounting()
        out += self._check_preemption_accounting(
            expect_no_pending=expect_empty_allocator
        )
        out += self._check_borrow_quiesce()
        out += self._check_prepared_claims()
        out += self._check_inplace_service()
        out += self._check_partial_activation()
        out += self._check_span_conservation()
        if expect_empty_allocator:
            out += self._check_allocator_empty()
        return out

    def assert_clean(self, violations: list[Violation] | None = None) -> None:
        found = self.audit_quiesce() if violations is None else violations
        if found:
            raise InvariantViolationError(found)

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def _check_memory_accounting(self) -> list[Violation]:
        out = [
            Violation("memory-accounting", problem)
            for problem in self._allocator.audit_balance()
        ]
        for gpu in self._cluster.gpus:
            cached = gpu.serving_mem
            recomputed = sum(gpu.stage_allocations.values())
            if cached != recomputed:
                out.append(
                    Violation(
                        "memory-accounting",
                        f"{gpu.gid} cached serving bytes {cached!r} differ "
                        f"from the recompute {recomputed!r}",
                    )
                )
            if gpu.used_memory > gpu.spec.memory + _CAPACITY_EPS:
                out.append(
                    Violation(
                        "memory-accounting",
                        f"{gpu.gid} over capacity: used {gpu.used_memory:.0f} "
                        f"of {gpu.spec.memory:.0f} bytes",
                    )
                )
        return out

    def _check_reservation_footprint(self) -> list[Violation]:
        out: list[Violation] = []
        for replica in self.replicas():
            if replica.state is ReplicaState.RELEASED:
                continue
            need = replica.plan.memory_per_stage(
                replica.max_batch, replica.profile.spec.kv_bytes_per_request
            )
            for stage, nbytes in zip(replica.stages, need):
                reservation = stage.reservation
                if reservation.released:
                    continue
                if reservation.nbytes < nbytes - _share_eps(nbytes):
                    out.append(
                        Violation(
                            "reservation-footprint",
                            f"{replica.name} stage {stage.index}: "
                            f"{reservation.res_id} holds "
                            f"{reservation.nbytes:.0f} bytes, below its "
                            f"footprint {nbytes:.0f} at batch "
                            f"{replica.max_batch}",
                        )
                    )
        return out

    def _check_state_machines(self) -> list[Violation]:
        out: list[Violation] = []
        for replica in self.replicas():
            history = replica.state_history
            if not history or history[0][1] is not ReplicaState.LOADING:
                out.append(
                    Violation(
                        "replica-state-machine",
                        f"{replica.name} did not start LOADING: {history!r}",
                    )
                )
                continue
            for (_, prev), (t, cur) in zip(history, history[1:]):
                if cur not in ALLOWED_TRANSITIONS[prev]:
                    out.append(
                        Violation(
                            "replica-state-machine",
                            f"{replica.name} moved {prev.value} -> {cur.value} "
                            f"at t={t:.6f}",
                        )
                    )
            if replica.state is not history[-1][1]:
                out.append(
                    Violation(
                        "replica-state-machine",
                        f"{replica.name} state {replica.state.value} disagrees "
                        f"with history tail {history[-1][1].value}",
                    )
                )
        return out

    def _check_anomalies(self) -> list[Violation]:
        return [
            Violation("replica-anomalies", f"{replica.name}: {anomaly}")
            for replica in self.replicas()
            for anomaly in replica.anomalies
        ]

    def _check_replica_conservation(self) -> list[Violation]:
        """Per replica: everything it accepted is completed or queued."""
        out: list[Violation] = []
        for replica in self.replicas():
            accounted = (
                replica.completed_requests
                + len(replica.batcher)
                + replica.inflight_requests
            )
            if replica.accepted_requests != accounted:
                out.append(
                    Violation(
                        "replica-conservation",
                        f"{replica.name} accepted {replica.accepted_requests} "
                        f"request(s) but accounts for {accounted} "
                        f"(completed {replica.completed_requests}, queued "
                        f"{len(replica.batcher)}, in flight "
                        f"{replica.inflight_requests})",
                    )
                )
        return out

    def _check_chain_accounting(self) -> list[Violation]:
        out: list[Violation] = []
        for replica in self.replicas():
            for chain_key, count in replica._chain_jobs.items():
                if count != 0:
                    out.append(
                        Violation(
                            "chain-accounting",
                            f"{replica.name} chain {chain_key} still counts "
                            f"{count} in-flight job(s) at quiesce",
                        )
                    )
            if replica.inflight_jobs != 0 or replica.inflight_requests != 0:
                out.append(
                    Violation(
                        "chain-accounting",
                        f"{replica.name} reports {replica.inflight_jobs} jobs/"
                        f"{replica.inflight_requests} requests in flight at quiesce",
                    )
                )
            if replica.state is ReplicaState.RELEASED:
                held = [
                    stage.reservation.res_id
                    for stage in (*replica.stages, *replica._retired_stages)
                    if not stage.reservation.released
                ]
                if held:
                    out.append(
                        Violation(
                            "chain-accounting",
                            f"released {replica.name} still holds {held}",
                        )
                    )
        return out

    def _check_partial_activation(self) -> list[Violation]:
        """Pipelined loading correctness, over every stage a replica ever
        had (live chains, parallel chains, retired stages):

        * no batch executes on a gated stage before its parameter load
          landed (``first_started_at >= loaded_at``);
        * a gated stage that executed work was actually marked loaded;
        * the load-complete mark fires exactly once per stage.
        """
        out: list[Violation] = []
        for replica in self.replicas():
            seen: set[int] = set()
            stages = [
                stage
                for chain in (
                    replica.stages,
                    *replica._chains.values(),
                    replica._retired_stages,
                )
                for stage in chain
                if not (id(stage) in seen or seen.add(id(stage)))
            ]
            for stage in stages:
                if stage.load_marks > 1:
                    out.append(
                        Violation(
                            "partial-activation",
                            f"{replica.name} stage {stage.index} marked "
                            f"loaded {stage.load_marks} times (exactly-once "
                            f"violated)",
                        )
                    )
                if not stage.was_gated:
                    continue
                if stage.jobs_executed > 0 and stage.loaded_at is None:
                    out.append(
                        Violation(
                            "partial-activation",
                            f"{replica.name} stage {stage.index} executed "
                            f"{stage.jobs_executed} job(s) but its load "
                            f"never completed",
                        )
                    )
                elif stage.loaded and stage.load_marks == 0:
                    out.append(
                        Violation(
                            "partial-activation",
                            f"{replica.name} stage {stage.index} gate opened "
                            f"without a load-complete mark",
                        )
                    )
                if (
                    stage.first_started_at is not None
                    and stage.loaded_at is not None
                    and stage.first_started_at < stage.loaded_at - 1e-9
                ):
                    out.append(
                        Violation(
                            "partial-activation",
                            f"{replica.name} stage {stage.index} started a "
                            f"batch at t={stage.first_started_at:.6f} before "
                            f"its load landed at t={stage.loaded_at:.6f}",
                        )
                    )
        return out

    def _check_router_reconciliation(self) -> list[Violation]:
        out: list[Violation] = []
        total_routed = 0
        for name, router in self.routers().items():
            total_routed += router.routed
            if router.submitted != router.routed + len(router.pending):
                out.append(
                    Violation(
                        "router-reconciliation",
                        f"router {name}: submitted {router.submitted} != "
                        f"routed {router.routed} + pending {len(router.pending)}",
                    )
                )
        # Cross-layer: everything the gateways routed must have been
        # accepted by some replica — a drop between router and replica
        # cannot hide behind the routers' own internally-consistent
        # counters.
        total_accepted = sum(r.accepted_requests for r in self.replicas())
        if total_routed != total_accepted:
            out.append(
                Violation(
                    "router-reconciliation",
                    f"routers routed {total_routed} request(s) but replicas "
                    f"accepted {total_accepted}",
                )
            )
        return out

    def _check_router_hygiene(self) -> list[Violation]:
        out: list[Violation] = []
        for name, router in self.routers().items():
            zombies = [
                r.name for r in router.replicas if r.state is ReplicaState.RELEASED
            ]
            if zombies:
                out.append(
                    Violation(
                        "router-hygiene",
                        f"router {name} still lists released replica(s) {zombies}",
                    )
                )
        return out

    def _check_queue_ledger(self) -> list[Violation]:
        out: list[Violation] = []
        fleet = getattr(self.system, "fleet_queue", None)
        pending = queued = waiting = 0
        for name, router in self.routers().items():
            accepting = [r for r in router.replicas if r.accepting]
            router_queued = sum(r.queue_length for r in accepting)
            router_waiting = sum(len(r.batcher) for r in accepting)
            if (router.queued, router.waiting) != (router_queued, router_waiting):
                out.append(
                    Violation(
                        "queue-ledger",
                        f"router {name}: running sums queued {router.queued}/"
                        f"waiting {router.waiting} != recompute "
                        f"{router_queued}/{router_waiting}",
                    )
                )
            if fleet is not None and router.fleet is not fleet:
                out.append(
                    Violation(
                        "queue-ledger",
                        f"router {name} does not feed the system's fleet totals",
                    )
                )
            pending += len(router.pending)
            queued += router_queued
            waiting += router_waiting
        totals = (pending, queued, waiting)
        if fleet is not None and (fleet.pending, fleet.queued, fleet.waiting) != totals:
            out.append(
                Violation(
                    "queue-ledger",
                    f"fleet totals pending {fleet.pending}/queued "
                    f"{fleet.queued}/waiting {fleet.waiting} != recompute "
                    f"{pending}/{queued}/{waiting}",
                )
            )
        return out

    def _check_cv_window(self) -> list[Violation]:
        out: list[Violation] = []
        now = self.system.sim.now
        for model, monitor in self.system.monitors.items():
            window = monitor.window
            stamps = window.stamps(now)
            ref = interarrival_cv(stamps) if len(stamps) >= window.min_samples else 0.0
            got = window.value(now)
            if abs(got - ref) > 1e-9 * max(1.0, ref):
                out.append(
                    Violation(
                        "cv-window",
                        f"monitor {model}: running CV {got!r} != recompute "
                        f"{ref!r} over {len(stamps)} stamps",
                    )
                )
        return out

    def _check_link_rates(self) -> list[Violation]:
        cluster = self._cluster
        links = [cluster.storage]
        for server in cluster.servers:
            links += (server.pcie, server.nic, server.ssd)
        links += (rack.uplink for rack in cluster.racks)
        return [
            Violation("link-rates", f"link {link.spec.name}: {problem}")
            for link in links
            if link.active_count
            for problem in link_rate_problems(link)
        ]

    def _check_request_conservation(self) -> list[Violation]:
        out: list[Violation] = []
        records = self.system.metrics.records
        completed_ids: set[int] = set()
        for request in records:
            if request.rid in completed_ids:
                out.append(
                    Violation(
                        "completion-uniqueness",
                        f"request {request.rid} completed more than once",
                    )
                )
            completed_ids.add(request.rid)
        shed = sum(gate.stats.rejected for gate in self.gates)
        if self.generators:
            admitted = sum(g.offered for g in self.generators) - shed
        else:
            admitted = self.system.metrics.offered
        resident = sum(len(r.pending) for r in self.routers().values()) + sum(
            len(replica.batcher) + replica.inflight_requests
            for replica in self.replicas()
        )
        if len(completed_ids) + resident != admitted:
            out.append(
                Violation(
                    "request-conservation",
                    f"admitted {admitted} != completed {len(completed_ids)} "
                    f"+ resident {resident} (shed {shed}) — "
                    f"{admitted - len(completed_ids) - resident} request(s) lost",
                )
            )
        return out

    def _check_admission_accounting(self) -> list[Violation]:
        """Gate books balance, per tenant, and sheds are exactly-once."""
        out: list[Violation] = []
        for i, gate in enumerate(self.gates):
            stats = gate.stats
            if stats.offered != stats.admitted + stats.rejected:
                out.append(
                    Violation(
                        "admission-accounting",
                        f"gate#{i}: offered {stats.offered} != admitted "
                        f"{stats.admitted} + shed {stats.rejected}",
                    )
                )
            tenant_stats = getattr(gate, "tenant_stats", None)
            if tenant_stats is None:
                continue
            tenants = tenant_stats()
            for model, t in tenants.items():
                if t.offered != t.admitted + t.rejected:
                    out.append(
                        Violation(
                            "admission-accounting",
                            f"gate#{i} tenant {model}: offered {t.offered} "
                            f"!= admitted {t.admitted} + shed {t.rejected}",
                        )
                    )
            # Tenant triples must sum to (at most) the aggregate: the
            # difference is exactly the unregistered pass-through traffic,
            # which by construction is never shed.
            spill = stats.offered - sum(t.offered for t in tenants.values())
            shed_spill = stats.rejected - sum(
                t.rejected for t in tenants.values()
            )
            if spill < 0 or shed_spill != 0:
                out.append(
                    Violation(
                        "admission-accounting",
                        f"gate#{i}: tenant triples do not reconcile with "
                        f"the aggregate (offered spill {spill}, shed "
                        f"spill {shed_spill})",
                    )
                )
        if self.gates and self.generators:
            # Exactly-once shedding, checked against ground truth: the
            # population of requests carrying the rejected mark is the
            # population the gates counted — no double shed (a request
            # counted twice would leave marks != counts), no unmarked
            # shed, no shed minted outside a gate.
            marked = sum(
                1
                for g in self.generators
                for r in g.requests
                if r.rejected
            )
            counted = sum(gate.stats.rejected for gate in self.gates)
            if marked != counted:
                out.append(
                    Violation(
                        "shed-accounting",
                        f"{marked} request(s) marked rejected but gates "
                        f"counted {counted} shed(s)",
                    )
                )
            completed_shed = [
                r.rid
                for g in self.generators
                for r in g.requests
                if r.rejected and r.completed
            ]
            if completed_shed:
                out.append(
                    Violation(
                        "shed-accounting",
                        f"shed request(s) completed anyway: "
                        f"{completed_shed[:8]}"
                        f"{'...' if len(completed_shed) > 8 else ''}",
                    )
                )
        return out

    def _check_share_caps(self) -> list[Violation]:
        """No capped tenant ever exceeded its fleet-memory share."""
        allocator = self._allocator
        caps = getattr(allocator, "share_caps", None)
        if not caps:
            return []
        out: list[Violation] = []
        fleet = allocator.fleet_memory()
        elastic = getattr(allocator, "elastic_shares", False)
        for model, cap in caps.items():
            # Relative epsilon: running tenant totals drift a few float
            # ulps per operation at the 10^12-byte scale.
            limit = cap * fleet
            limit += max(_CAPACITY_EPS, 1e-9 * limit)
            live = allocator.tenant_reserved.get(model, 0.0)
            peak = allocator.tenant_peak.get(model, 0.0)
            if elastic:
                # Under elastic contracts the cap loosens by exactly the
                # tenant's current borrow-ledger total; transient peaks
                # above cap are legal as long as the ledger covered them
                # (``borrow-accounting`` audits the uncovered peak).
                limit += allocator._borrowed_total(model)
                if live > limit:
                    out.append(
                        Violation(
                            "share-cap",
                            f"{model} holds {live:.0f} bytes, over its "
                            f"{cap:.0%} cap plus borrowed bytes of "
                            f"{fleet:.0f}-byte fleet",
                        )
                    )
                continue
            if live > limit:
                out.append(
                    Violation(
                        "share-cap",
                        f"{model} holds {live:.0f} bytes, over its "
                        f"{cap:.0%} cap of {fleet:.0f}-byte fleet",
                    )
                )
            elif peak > limit:
                out.append(
                    Violation(
                        "share-cap",
                        f"{model} peaked at {peak:.0f} bytes, over its "
                        f"{cap:.0%} cap of {fleet:.0f}-byte fleet",
                    )
                )
        return out

    def _check_borrow_accounting(self) -> list[Violation]:
        """Elastic-contract books: ledger == overage, lenders covered."""
        allocator = self._allocator
        if not getattr(allocator, "elastic_shares", False):
            return []
        out: list[Violation] = []
        fleet = allocator.fleet_memory()
        eps = max(_CAPACITY_EPS, 1e-9 * fleet)
        # The ledger is derived from the tenant books: each borrower's
        # ledger sum must equal its overage above cap, and an uncapped
        # tenant must never carry a ledger row at all.
        for borrower, debts in allocator._borrows.items():
            total = sum(debts.values())
            cap = allocator.share_caps.get(borrower)
            if cap is None:
                out.append(
                    Violation(
                        "borrow-accounting",
                        f"uncapped tenant {borrower} carries a borrow "
                        f"ledger of {total:.0f} bytes",
                    )
                )
                continue
            overage = max(
                allocator.tenant_reserved.get(borrower, 0.0) - cap * fleet, 0.0
            )
            if abs(total - overage) > eps:
                out.append(
                    Violation(
                        "borrow-accounting",
                        f"{borrower} ledger sums to {total:.0f} bytes but "
                        f"its overage above cap is {overage:.0f}",
                    )
                )
        # Cap never violated beyond the ledger, not even transiently.
        for model, over in allocator.tenant_overage_peak.items():
            if over > eps:
                out.append(
                    Violation(
                        "borrow-accounting",
                        f"{model} exceeded its cap by {over:.0f} bytes "
                        f"beyond what the borrow ledger covered",
                    )
                )
        # An over-committed lender (own demand + lent-out above its cap)
        # must be pressing its borrowers via an open reclaim demand.
        open_lenders = {d.lender for d in allocator.open_reclaim_demands()}
        for lender, cap in allocator.share_caps.items():
            lent = allocator._lent_out(lender)
            if lent <= eps:
                continue
            own = allocator.tenant_reserved.get(
                lender, 0.0
            ) - allocator._borrowed_total(lender)
            if own + lent > cap * fleet + eps and lender not in open_lenders:
                out.append(
                    Violation(
                        "borrow-accounting",
                        f"lender {lender} is over-committed (own "
                        f"{own:.0f} + lent {lent:.0f} bytes over its "
                        f"{cap:.0%} cap) with no open reclaim demand",
                    )
                )
        # Bounded reclamation latency.
        now = self.system.sim.now
        bound = getattr(allocator, "reclaim_bound", 60.0)
        for demand in allocator.open_reclaim_demands():
            age = now - demand.issued_at
            if age > bound:
                out.append(
                    Violation(
                        "borrow-reclaim-latency",
                        f"reclaim demand by {demand.lender} for "
                        f"{demand.nbytes:.0f} bytes open for {age:.1f}s "
                        f"(bound {bound:.1f}s)",
                    )
                )
        return out

    def _check_borrow_quiesce(self) -> list[Violation]:
        """At quiesce every borrowed byte is back with its lender."""
        allocator = self._allocator
        if not getattr(allocator, "elastic_shares", False):
            return []
        out: list[Violation] = []
        if allocator._borrows:
            out.append(
                Violation(
                    "borrow-accounting",
                    f"borrow ledger not empty at quiesce: "
                    f"{sorted(allocator._borrows)}",
                )
            )
        still_open = allocator.open_reclaim_demands()
        if still_open:
            out.append(
                Violation(
                    "borrow-accounting",
                    f"{len(still_open)} reclaim demand(s) still open at "
                    f"quiesce: {[d.lender for d in still_open][:8]}",
                )
            )
        for borrower in set(allocator.bytes_borrowed) | set(
            allocator.bytes_returned
        ):
            borrowed = allocator.bytes_borrowed.get(borrower, 0.0)
            returned = allocator.bytes_returned.get(borrower, 0.0)
            if abs(borrowed - returned) > max(_CAPACITY_EPS, 1e-9 * borrowed):
                out.append(
                    Violation(
                        "borrow-accounting",
                        f"{borrower} borrowed {borrowed:.0f} bytes but "
                        f"returned {returned:.0f} by quiesce",
                    )
                )
        return out

    def _executors(self) -> dict:
        """Per-model refactoring executors, when the system has them."""
        getter = getattr(self.system, "executors", None)
        return getter() if callable(getter) else {}

    def _check_prepared_claims(self) -> list[Violation]:
        """A cancelled preparation never switches in (token disjointness);
        stale prepared-chain claims fall out of the existing pending-claim
        and preemption-record checks."""
        out: list[Violation] = []
        for name, executor in self._executors().items():
            both = executor.switched_tokens & executor.aborted_tokens
            if both:
                out.append(
                    Violation(
                        "prepared-claim",
                        f"{name}: transition token(s) {sorted(both)[:8]} "
                        f"both switched in and aborted — a cancelled "
                        f"preparation must never serve",
                    )
                )
        return out

    def _check_inplace_service(self) -> list[Violation]:
        """The replica never left ACTIVE inside an in-place transition."""
        out: list[Violation] = []
        for name, executor in self._executors().items():
            for replica, start, end in executor.inplace_spans:
                inside = [
                    (t, state)
                    for t, state in replica.state_history
                    if start < t < end
                ]
                if inside:
                    t, state = inside[0]
                    out.append(
                        Violation(
                            "inplace-service-gap",
                            f"{replica.name} moved to {state.value} at "
                            f"t={t:.6f} inside an in-place transition "
                            f"({start:.6f}..{end:.6f}) of {name}",
                        )
                    )
        return out

    def _check_preemption_accounting(
        self, *, expect_no_pending: bool = True
    ) -> list[Violation]:
        """Preempted deploys never serve and release exactly once."""
        allocator = self._allocator
        out: list[Violation] = []
        for record in getattr(allocator, "preemptions", ()):
            if record.claim.state != "preempted":
                out.append(
                    Violation(
                        "preemption-accounting",
                        f"preempted deploy of {record.victim_model} "
                        f"resolved to {record.claim.state!r} (must stay "
                        f"preempted — a preempted deploy never serves)",
                    )
                )
            leaked = [r.res_id for r in record.reservations if not r.released]
            if leaked:
                out.append(
                    Violation(
                        "preemption-accounting",
                        f"preempted deploy of {record.victim_model} (for "
                        f"{record.claimant_model}) still holds {leaked}",
                    )
                )
        if expect_no_pending:
            stale = getattr(allocator, "pending_claims", lambda: [])()
            if stale:
                out.append(
                    Violation(
                        "preemption-accounting",
                        f"{len(stale)} pending deploy claim(s) never "
                        f"resolved: "
                        f"{[c.model for c in stale][:8]}",
                    )
                )
        return out

    def _check_span_conservation(self) -> list[Violation]:
        """Traced runs only: every accepted request began a trace, and
        finalized spans tile each latency interval."""
        tracer = getattr(getattr(self.system, "sim", None), "tracer", None)
        if tracer is None:
            return []
        from repro.observability.attribution import conservation_violations

        out = [
            Violation("span-conservation", problem)
            for problem in conservation_violations(tracer.finalized)
        ]
        accepted = self.system.metrics.offered
        if tracer.begun != accepted:
            out.append(
                Violation(
                    "span-conservation",
                    f"{accepted} request(s) accepted but {tracer.begun} "
                    "trace(s) begun",
                )
            )
        return out

    def _check_allocator_empty(self) -> list[Violation]:
        out: list[Violation] = []
        if self._allocator.live:
            leaked = sorted(self._allocator.live)
            out.append(
                Violation(
                    "allocator-empty",
                    f"{len(leaked)} reservation(s) leaked after shutdown: "
                    f"{leaked[:8]}{'...' if len(leaked) > 8 else ''}",
                )
            )
        for gpu in self._cluster.gpus:
            stray = gpu.stage_allocations
            if stray:
                out.append(
                    Violation(
                        "allocator-empty",
                        f"{gpu.gid} still carries stage allocation(s) "
                        f"{sorted(stray)} after shutdown",
                    )
                )
        for replica in self.replicas():
            if replica.state is not ReplicaState.RELEASED:
                out.append(
                    Violation(
                        "allocator-empty",
                        f"{replica.name} still {replica.state.value} after shutdown",
                    )
                )
        return out


def link_rate_problems(link) -> list[str]:
    """Where ``link``'s held state departs from the two-pass rate rule
    recomputed from its in-flight caps (the ``link-rates`` invariant)."""
    streams = link.in_flight()
    if not streams:
        return []
    bandwidth, latency = link.spec.bandwidth, link.spec.latency
    share = bandwidth / len(streams)
    capped = [
        h.max_rate for h in streams if h.max_rate is not None and h.max_rate < share
    ]
    n_open = len(streams) - len(capped)
    fair = max(bandwidth - math.fsum(capped), 0.0) / n_open if n_open else 0.0
    vtime = link.virtual_time(link.sim.now)
    out: list[str] = []
    for i, h in enumerate(streams):
        cap = h.max_rate
        if cap is not None and cap < share:
            kind, rate = "capped", cap
        elif cap is not None and cap <= fair:
            kind, rate = "own", cap
        else:
            kind, rate = "fair", fair
        rate = max(rate, 1e-9)
        held = link.stream_class(h)
        # A cap within 1e-9 of ``fair`` runs at the same rate either way.
        if held != kind and not (
            cap is not None and abs(cap - fair) <= 1e-9 * fair
        ):
            out.append(f"stream #{i} held {held!r}, rule says {kind!r}")
        if abs(h.rate - rate) > 1e-9 * rate:
            out.append(f"stream #{i} rate {h.rate!r} != recompute {rate!r}")
        joined = h.nbytes + latency * min(cap or bandwidth, bandwidth)
        remaining = h.remaining
        if not 0.0 <= remaining <= joined + 1e-9 * max(1.0, joined, vtime):
            out.append(
                f"stream #{i} remaining {remaining!r} outside [0, {joined!r}]"
            )
    total = math.fsum(h.rate for h in streams)
    if total > bandwidth * (1 + 1e-9):
        out.append(f"held rates sum to {total!r} > bandwidth {bandwidth!r}")
    return out
