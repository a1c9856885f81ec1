"""GPU allocation with the paper's placement constraints.

Hard rules implemented (§6.2):

* stages of the *same model* are never placed on the same GPU (except
  transiently during an inflight refactoring transition, where the old and
  new incarnation of a stage co-reside until switchover — callers opt in
  via ``allow_same_model``);
* serving reservations never over-commit GPU memory.

Soft preferences (the Eq. 6 objective and the Eq. 13 affinity policy) are
injected as a scoring callable so refactoring/scaling policies stay in
their own modules.

QoS resource arbitration (opt-in via :meth:`GPUAllocator.enable_arbitration`)
adds two class-aware rules on top, both inert until enabled:

* **strict-priority contention with preempt-or-wait** — an allocation that
  finds no feasible fragment may cancel *pending deploys* (replicas still
  loading, registered via :meth:`register_pending_deploy`) of strictly
  lower-priority tenants to free their reservations, retrying after each
  preemption; ACTIVE replicas are never touched, so no in-flight request
  is ever sacrificed to a deploy race;
* **per-tenant share caps** — a tenant may hold at most its configured
  fraction of total fleet GPU memory, enforced on every reservation and
  resize, so no tenant (any class) can monopolise a scarce cluster.

Elastic share contracts (opt-in via
:meth:`GPUAllocator.enable_elastic_shares`, on top of arbitration) turn
the static caps into borrowable contracts: a capped tenant may exceed its
cap into another capped tenant's *idle* headroom, tracked byte-for-byte
in a borrow ledger.  The ledger is **derived** from the tenant books —
after every booking it is reconciled so each borrower's ledger sum equals
its overage above cap — which makes "every borrowed byte is returned by
quiesce" hold by construction.  When a lender wants its headroom back
(its own demand grows, or a placement for it fails while bytes are lent
out) the allocator issues a :class:`ReclaimDemand` and asks borrowers —
largest debt first — to shed their excess; the auditor holds open
demands to a bounded reclamation latency.

Blocked tenants retry the same placement every control tick.  A failed
placement that a matching certificate proves impossible for *every*
scorer is memoised against the cluster's capacity epoch, so identical
retries raise without scanning the fleet until some change adds
placement room.  A tenant that hosts no stage is memoised by its stage
sizes alone, so one proof serves every same-shape tenant.  Failures that
are only the scorer's bad luck are never memoised: HRG contention and
warm-cache coverage move at a fixed epoch, so the retry may succeed.  A
memoised failure hands its caller an :class:`InfeasibleCertificate`,
which lets the autoscaler skip retries while the memo holds its key.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.gpu import GPU


class AllocationError(RuntimeError):
    """Raised when an allocation request cannot be satisfied.

    ``certificate`` is set only when an identical retry must fail the same
    way (see :meth:`GPUAllocator.allocate_stages`).
    """

    def __init__(
        self, message: str, certificate: InfeasibleCertificate | None = None
    ):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True, eq=False)
class InfeasibleCertificate:
    """A placement the allocator's memo records as impossible.

    It holds while the memo records ``key`` at the cluster's current
    capacity epoch, whoever certified it there: after the epoch moves, a
    same-shape tenant's rescan that fails again renews every certificate
    of that key.  The memo (which :meth:`GPUAllocator.audit_balance`
    re-derives) stays the single source of truth.
    """

    allocator: GPUAllocator
    key: tuple

    def holds(self) -> bool:
        allocator = self.allocator
        return (
            allocator._infeasible.get(self.key)
            == allocator.cluster.capacity_epoch
        )


# Share-cap comparisons happen at the 10^12-byte scale, where running
# +=/-= totals accumulate float error well past any fixed absolute
# epsilon; comparisons therefore use an epsilon relative to the quantity
# compared (floored at 1e-3 bytes for small scales).
_SHARE_EPS = 1e-3


def _share_eps(scale: float) -> float:
    return max(_SHARE_EPS, 1e-9 * abs(scale))


@dataclass
class StageReservation:
    """One stage's memory reservation on one GPU."""

    res_id: str
    model: str
    gpu: GPU
    nbytes: float
    released: bool = False


@dataclass
class PendingClaim:
    """A not-yet-serving deploy's reservation set.

    Registered by the replica factory while the deploy is still loading;
    until it resolves (activation or teardown) the claim is *preemptible*:
    a strictly more urgent class finding no feasible fragment may cancel
    it through ``cancel`` (which drains the LOADING replica, releasing the
    reservations through the normal teardown path — exactly once).
    """

    claim_id: int
    model: str
    priority: int
    reservations: list[StageReservation]
    cancel: Callable[[], None]
    state: str = "pending"  # "pending" | "active" | "released" | "preempted"
    # "deploy" for loading replicas; "prepared-chain" for an inflight
    # refactoring's prepared (not-yet-switched) target chain, whose cancel
    # rolls the executor back to the still-serving old chain.
    kind: str = "deploy"


@dataclass(frozen=True)
class PreemptionRecord:
    """One preempt-or-wait decision, kept for the auditor.

    The auditor asserts every preempted deploy's reservations were in fact
    released (exactly once — a double release raises at the GPU books) and
    that the victim never went on to serve.
    """

    victim_model: str
    victim_priority: int
    claimant_model: str
    claimant_priority: int
    claim: PendingClaim
    reservations: tuple[StageReservation, ...] = field(default_factory=tuple)


@dataclass
class ReclaimDemand:
    """A lender's standing request for its lent-out headroom back.

    Open (``resolved_at is None``) until the lender's lent-out total drops
    to ``target_lent``; the auditor flags demands that stay open past the
    allocator's ``reclaim_bound`` — the bounded-reclamation-latency half
    of the elastic contract.
    """

    lender: str
    nbytes: float
    issued_at: float
    target_lent: float
    resolved_at: float | None = None


class GPUAllocator:
    """Cluster-wide allocator used by FlexPipe and all baselines."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self._counter = itertools.count()
        self.live: dict[str, StageReservation] = {}
        # gid -> live reservations on that GPU (absent at zero).
        self._live_on: dict[str, int] = {}
        self.failed_requests = 0
        self.granted_requests = 0
        # Outcomes of the memoised placement pass, one count each.
        self.placed = 0
        self.memo_hits = 0
        self.new_certificates = 0
        self.failed_with_matching = 0
        # --- QoS arbitration state (inert until enable_arbitration) ---
        # model -> strict-priority rank (0 = most urgent); None = off.
        self.qos_priority_of: Callable[[str], int] | None = None
        # model -> max fraction of fleet memory it may hold.
        self.share_caps: dict[str, float] = {}
        # Live and high-water reserved bytes per tenant (every tenant,
        # capped or not — the share rows of the QoS report read these).
        self.tenant_reserved: dict[str, float] = {}
        self.tenant_peak: dict[str, float] = {}
        self._claim_counter = itertools.count()
        self._pending_claims: dict[int, PendingClaim] = {}
        self.preemptions: list[PreemptionRecord] = []
        self.preempted_deploys = 0
        self._fleet_memory: float | None = None
        # --- elastic share contracts (inert until enable_elastic_shares) ---
        self.elastic_shares = False
        self.reclaim_bound = 60.0
        self._clock: Callable[[], float] = lambda: 0.0
        self._reclaim_hook: Callable[[str, float], None] | None = None
        # borrower -> lender -> bytes currently borrowed.
        self._borrows: dict[str, dict[str, float]] = {}
        self.borrow_events: dict[str, int] = {}
        self.bytes_borrowed: dict[str, float] = {}
        self.bytes_returned: dict[str, float] = {}
        self.reclaim_demands: list[ReclaimDemand] = []
        # Peak bytes a tenant held above cap *beyond* what the ledger
        # covers — must stay within epsilon (the elastic cap invariant).
        self.tenant_overage_peak: dict[str, float] = {}
        # Observability: a FlightRecorder installed by a traced run (the
        # allocator has no simulator handle; ``_clock`` stamps events).
        self.recorder = None
        # (model, stage bytes, excluded gids) -> capacity epoch at which
        # the matching certificate proved the placement impossible; model
        # is None for a tenant hosting no stage (see _place_memoised).
        self._infeasible: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # QoS arbitration configuration
    # ------------------------------------------------------------------
    def enable_arbitration(
        self,
        priority_of: Callable[[str], int],
        *,
        share_caps: dict[str, float] | None = None,
    ) -> None:
        """Turn on class-aware resource arbitration.

        ``priority_of`` maps a model (tenant) to its strict-priority rank;
        ``share_caps`` maps tenants to the max fraction of fleet GPU
        memory they may reserve.  Until this runs, every arbitration hook
        is inert and allocation behaviour is byte-identical to the
        historical allocator.
        """
        for model, cap in (share_caps or {}).items():
            if not 0.0 < cap <= 1.0:
                raise ValueError(
                    f"share cap for {model!r} must be in (0, 1], got {cap}"
                )
        self.qos_priority_of = priority_of
        self.share_caps = dict(share_caps or {})

    def enable_elastic_shares(
        self,
        *,
        clock: Callable[[], float],
        reclaim: Callable[[str, float], None] | None = None,
        reclaim_bound: float = 60.0,
    ) -> None:
        """Turn static share caps into borrowable elastic contracts.

        ``clock`` stamps reclaim demands (simulation time); ``reclaim`` is
        called as ``reclaim(borrower, nbytes)`` when a lender demands its
        headroom back — the serving layer drains the borrower's excess
        replicas; ``reclaim_bound`` is the reclamation-latency bound the
        auditor enforces on open demands.  Until this runs every elastic
        hook is inert and cap enforcement is byte-identical to the static
        behaviour.
        """
        self.elastic_shares = True
        self._clock = clock
        self._reclaim_hook = reclaim
        self.reclaim_bound = float(reclaim_bound)
        # Caps may be installed after the fleet settled: reconcile the
        # ledger for any tenant already holding bytes above its cap.
        for model in list(self.share_caps):
            self._elastic_book(model)

    @property
    def arbitration_enabled(self) -> bool:
        return self.qos_priority_of is not None

    def fleet_memory(self) -> float:
        """Total static GPU memory of the cluster (stable denominator)."""
        if self._fleet_memory is None:
            self._fleet_memory = sum(g.memory for g in self.cluster.gpus)
        return self._fleet_memory

    def tenant_share(self, model: str) -> float:
        """Live fraction of fleet memory this tenant holds."""
        return self.tenant_reserved.get(model, 0.0) / self.fleet_memory()

    def tenant_peak_share(self, model: str) -> float:
        """High-water fraction of fleet memory this tenant ever held."""
        return self.tenant_peak.get(model, 0.0) / self.fleet_memory()

    def share_headroom(self, model: str) -> float:
        """Bytes this tenant may still reserve under its cap (inf = uncapped).

        With elastic contracts on, headroom includes the idle lendable
        headroom of every *other* capped tenant — this one call is what
        makes the autoscaler and ``_share_allows_refactor`` contract-aware.
        """
        cap = self.share_caps.get(model)
        if cap is None:
            return math.inf
        allowed = cap * self.fleet_memory()
        if self.elastic_shares:
            allowed += self._borrowed_total(model) + self._total_lendable(
                exclude=model
            )
        return max(allowed - self.tenant_reserved.get(model, 0.0), 0.0)

    def _check_share(self, model: str, additional: float) -> None:
        cap = self.share_caps.get(model)
        if cap is None:
            return
        limit = cap * self.fleet_memory()
        held = self.tenant_reserved.get(model, 0.0)
        if held + additional <= limit + _share_eps(limit):
            return
        if self.elastic_shares:
            # Feasibility only — the ledger commits in _book_tenant, so a
            # check that is not followed by a booking changes no state.
            need = held + additional - limit
            capacity = self._borrowed_total(model) + self._total_lendable(
                exclude=model
            )
            if need <= capacity + _share_eps(limit):
                return
            raise AllocationError(
                f"elastic share cap: {model!r} needs {need / 2**30:.1f} GiB "
                f"above its {cap:.0%} cap but only "
                f"{capacity / 2**30:.1f} GiB is borrowed or lendable"
            )
        raise AllocationError(
            f"share cap: {model!r} holds {held / 2**30:.1f} GiB and "
            f"requests {additional / 2**30:.1f} GiB, over its "
            f"{cap:.0%} cap ({limit / 2**30:.1f} GiB) of fleet memory"
        )

    def _book_tenant(self, model: str, delta: float) -> None:
        total = self.tenant_reserved.get(model, 0.0) + delta
        # A fully-released tenant's total is pure float residue; the
        # residue scales with the magnitudes summed, so the cleanup
        # threshold keys off the tenant's high-water mark.
        if total <= _share_eps(self.tenant_peak.get(model, 0.0)):
            self.tenant_reserved.pop(model, None)
        else:
            self.tenant_reserved[model] = total
            if total > self.tenant_peak.get(model, 0.0):
                self.tenant_peak[model] = total
        if self.elastic_shares:
            self._elastic_book(model)

    # ------------------------------------------------------------------
    # Elastic borrow ledger (derived from the tenant books)
    # ------------------------------------------------------------------
    def _limit_of(self, model: str) -> float | None:
        cap = self.share_caps.get(model)
        return None if cap is None else cap * self.fleet_memory()

    def _borrowed_total(self, model: str) -> float:
        return sum(self._borrows.get(model, {}).values())

    def _lent_out(self, model: str) -> float:
        return sum(
            debts.get(model, 0.0) for debts in self._borrows.values()
        )

    def _lendable(self, model: str) -> float:
        """Idle headroom this capped tenant can lend right now."""
        limit = self._limit_of(model)
        if limit is None:
            return 0.0  # uncapped tenants have no contract to lend from
        own = self.tenant_reserved.get(model, 0.0) - self._borrowed_total(model)
        return max(limit - own - self._lent_out(model), 0.0)

    def _total_lendable(self, *, exclude: str) -> float:
        return sum(
            self._lendable(m) for m in self.share_caps if m != exclude
        )

    def _elastic_book(self, model: str) -> None:
        """Reconcile the ledger after ``model``'s books changed.

        Borrower side: the ledger sum is kept equal to the tenant's
        overage above cap (borrow on growth, return on release), so a
        tenant whose reservations all drain necessarily returns every
        borrowed byte.  Lender side: if this tenant's own demand now
        collides with bytes it has lent out, a reclaim demand is issued.
        """
        limit = self._limit_of(model)
        if limit is not None:
            reserved = self.tenant_reserved.get(model, 0.0)
            eps = _share_eps(max(limit, reserved))
            overage = max(reserved - limit, 0.0)
            current = self._borrowed_total(model)
            if overage > current + eps:
                self._borrow(model, overage - current)
            elif current > overage + eps:
                self._return(model, current - overage)
            uncovered = reserved - limit - self._borrowed_total(model)
            if uncovered > self.tenant_overage_peak.get(model, 0.0):
                self.tenant_overage_peak[model] = uncovered
            self._press_if_over_committed(model)
        self._settle_demands()

    def _over_commit(self, model: str) -> float:
        """Bytes by which a lender's own holding plus what it has lent out
        exceeds its cap (0 when within the cap or lending nothing)."""
        limit = self._limit_of(model)
        lent = self._lent_out(model)
        if limit is None or lent <= 0.0:
            return 0.0
        reserved = self.tenant_reserved.get(model, 0.0)
        over = reserved - self._borrowed_total(model) + lent - limit
        return over if over > _share_eps(max(limit, reserved)) else 0.0

    def _press_if_over_committed(self, model: str) -> None:
        """An over-committed lender presses its borrowers for the excess."""
        over = self._over_commit(model)
        if over > 0.0:
            self._demand_reclaim(model, over)

    def _borrow(self, borrower: str, need: float) -> None:
        # Largest idle headroom first (name-ordered tiebreak keeps the
        # lender choice deterministic across runs).
        lenders = sorted(
            (m for m in self.share_caps if m != borrower),
            key=lambda m: (-self._lendable(m), m),
        )
        debts = self._borrows.setdefault(borrower, {})
        took_any = False
        for lender in lenders:
            if need <= _SHARE_EPS:
                break
            take = min(self._lendable(lender), need)
            if take <= 0.0:
                continue
            debts[lender] = debts.get(lender, 0.0) + take
            self.bytes_borrowed[borrower] = (
                self.bytes_borrowed.get(borrower, 0.0) + take
            )
            if self.recorder is not None:
                self.recorder.record(
                    self._clock(),
                    "borrow",
                    borrower=borrower,
                    lender=lender,
                    nbytes=take,
                )
            need -= take
            took_any = True
        if took_any:
            self.borrow_events[borrower] = (
                self.borrow_events.get(borrower, 0) + 1
            )
        if need > _SHARE_EPS and lenders:
            # Shortfall (feasibility was vetted before booking, so this
            # means headroom vanished between check and book — e.g. caps
            # installed over an already-over-cap fleet).  Attribute the
            # debt to the largest-cap lender and press it for the bytes;
            # tenant_overage_peak is the auditor's backstop if even that
            # lender cannot cover it.
            fallback = max(
                lenders, key=lambda m: (self.share_caps[m], m)
            )
            debts[fallback] = debts.get(fallback, 0.0) + need
            self.bytes_borrowed[borrower] = (
                self.bytes_borrowed.get(borrower, 0.0) + need
            )
            self._demand_reclaim(fallback, need)
        if not debts:
            self._borrows.pop(borrower, None)

    def _return(self, borrower: str, amount: float) -> None:
        debts = self._borrows.get(borrower, {})
        # Pressed lenders (an open reclaim demand) are repaid first, then
        # largest debt first.
        pressed = {
            d.lender for d in self.reclaim_demands if d.resolved_at is None
        }
        order = sorted(
            debts,
            key=lambda m: (m not in pressed, -debts[m], m),
        )
        for lender in order:
            if amount <= 0.0:
                break
            give = min(debts[lender], amount)
            debts[lender] -= give
            if debts[lender] <= _SHARE_EPS:
                del debts[lender]
            self.bytes_returned[borrower] = (
                self.bytes_returned.get(borrower, 0.0) + give
            )
            if self.recorder is not None:
                self.recorder.record(
                    self._clock(),
                    "borrow_returned",
                    borrower=borrower,
                    lender=lender,
                    nbytes=give,
                )
            amount -= give
        if not debts:
            self._borrows.pop(borrower, None)

    def _demand_reclaim(self, lender: str, nbytes: float) -> None:
        if any(
            d.resolved_at is None and d.lender == lender
            for d in self.reclaim_demands
        ):
            return  # already pressing this lender's borrowers
        lent = self._lent_out(lender)
        if lent <= _SHARE_EPS:
            return
        nbytes = min(nbytes, lent)
        demand = ReclaimDemand(
            lender=lender,
            nbytes=nbytes,
            issued_at=self._clock(),
            target_lent=max(lent - nbytes, 0.0),
        )
        self.reclaim_demands.append(demand)
        if self.recorder is not None:
            self.recorder.record(
                demand.issued_at,
                "reclaim_demand",
                lender=lender,
                nbytes=nbytes,
                target_lent=demand.target_lent,
            )
        if self._reclaim_hook is not None:
            owed = sorted(
                (
                    (debts.get(lender, 0.0), borrower)
                    for borrower, debts in self._borrows.items()
                    if debts.get(lender, 0.0) > 0.0
                ),
                key=lambda pair: (-pair[0], pair[1]),
            )
            remaining = nbytes
            for debt, borrower in owed:
                if remaining <= 0.0:
                    break
                ask = min(debt, remaining)
                self._reclaim_hook(borrower, ask)
                remaining -= ask

    def _settle_demands(self) -> None:
        settled = []
        for demand in self.reclaim_demands:
            if demand.resolved_at is None and (
                self._lent_out(demand.lender)
                <= demand.target_lent + _share_eps(demand.nbytes)
            ):
                demand.resolved_at = self._clock()
                settled.append(demand.lender)
        # A demand is met at its issue-time target, but the lender's own
        # holding may have grown while it was open (no second demand
        # stacks on an open one): press again for what is still over.
        for lender in settled:
            self._press_if_over_committed(lender)

    def open_reclaim_demands(self) -> list[ReclaimDemand]:
        return [d for d in self.reclaim_demands if d.resolved_at is None]

    # ------------------------------------------------------------------
    # Pending-deploy claims (the preempt-or-wait surface)
    # ------------------------------------------------------------------
    def register_pending_deploy(
        self,
        model: str,
        reservations: Sequence[StageReservation],
        cancel: Callable[[], None],
        *,
        kind: str = "deploy",
    ) -> PendingClaim | None:
        """Track a loading deploy as preemptible; no-op while arbitration
        is off (returns ``None``).  The factory resolves the claim via
        :meth:`claim_resolved` when the replica activates or tears down.
        ``kind="prepared-chain"`` marks an inflight refactoring's prepared
        target chain (cancel rolls back to the still-serving old chain)."""
        if self.qos_priority_of is None:
            return None
        claim = PendingClaim(
            next(self._claim_counter),
            model,
            int(self.qos_priority_of(model)),
            list(reservations),
            cancel,
            kind=kind,
        )
        self._pending_claims[claim.claim_id] = claim
        return claim

    def claim_resolved(
        self, claim: PendingClaim | None, *, activated: bool
    ) -> None:
        """The deploy finished loading or was torn down: no longer
        preemptible.  Resolving a preempted claim is a no-op (its state
        stays ``preempted`` — the auditor relies on that)."""
        if claim is None:
            return
        if self._pending_claims.pop(claim.claim_id, None) is not None:
            claim.state = "active" if activated else "released"

    def pending_claims(self) -> list[PendingClaim]:
        return list(self._pending_claims.values())

    def _preemptible_victims(self, priority: int) -> list[PendingClaim]:
        """Pending claims a priority-``priority`` request may cancel:
        strictly lower classes holding memory on a usable (non-cordoned)
        GPU.  Whether cancelling them would actually unblock a placement
        is :meth:`_feasible_with`'s call."""
        victims = [
            claim
            for claim in self._pending_claims.values()
            if claim.priority > priority
            and any(
                not res.released and not res.gpu.cordoned
                for res in claim.reservations
            )
        ]
        # Least-important first, most-recent first within a class: the
        # youngest low-class deploy has sunk the least loading work.
        victims.sort(key=lambda c: (-c.priority, -c.claim_id))
        return victims

    def _preempt(self, claim: PendingClaim, claimant: str, priority: int) -> None:
        self._pending_claims.pop(claim.claim_id, None)
        claim.state = "preempted"
        self.preempted_deploys += 1
        self.preemptions.append(
            PreemptionRecord(
                victim_model=claim.model,
                victim_priority=claim.priority,
                claimant_model=claimant,
                claimant_priority=priority,
                claim=claim,
                reservations=tuple(claim.reservations),
            )
        )
        if self.recorder is not None:
            self.recorder.record(
                self._clock(),
                "preemption",
                victim=claim.model,
                victim_priority=claim.priority,
                claimant=claimant,
                claimant_priority=priority,
                claim_kind=claim.kind,
                nbytes=sum(r.nbytes for r in claim.reservations),
            )
        # Cancelling drains the LOADING replica; its teardown releases the
        # reservations through the normal (exactly-once) path.
        claim.cancel()

    # ------------------------------------------------------------------
    def candidates(
        self,
        mem_needed: float,
        *,
        model: str | None = None,
        exclude: Iterable[GPU] = (),
    ) -> list[GPU]:
        """GPUs that could host a stage of ``model`` needing ``mem_needed``."""
        banned = {g.gid for g in exclude}
        out = []
        for gpu in self.cluster.gpus:
            if gpu.gid in banned or gpu.cordoned:
                continue
            if model is not None and gpu.hosts_model(model):
                continue  # same-model anti-affinity (hard rule)
            if gpu.free_memory >= mem_needed:
                out.append(gpu)
        return out

    def reserve_on(
        self,
        model: str,
        gpu: GPU,
        nbytes: float,
        *,
        allow_same_model: bool = False,
    ) -> StageReservation:
        """Reserve ``nbytes`` for one stage on a specific GPU."""
        if gpu.cordoned:
            raise AllocationError(f"{gpu.gid} is cordoned (reclaimed)")
        if not allow_same_model and gpu.hosts_model(model):
            raise AllocationError(
                f"{gpu.gid} already hosts a stage of {model!r} (anti-affinity)"
            )
        if nbytes > gpu.free_memory + 1e-6:
            raise AllocationError(
                f"{gpu.gid} lacks {nbytes / 2**30:.2f} GiB "
                f"(free {gpu.free_memory / 2**30:.2f} GiB)"
            )
        self._check_share(model, nbytes)
        res_id = f"res-{next(self._counter)}"
        gpu.reserve(res_id, nbytes, model=model)
        reservation = StageReservation(res_id, model, gpu, nbytes)
        self.live[res_id] = reservation
        self._live_on[gpu.gid] = self._live_on.get(gpu.gid, 0) + 1
        self._book_tenant(model, nbytes)
        return reservation

    def allocate_stages(
        self,
        model: str,
        mem_per_stage: Sequence[float],
        *,
        scorer: Callable[[GPU], float] | None = None,
        stage_bonuses: Sequence[Callable[[GPU], float]] | None = None,
        exclude: Iterable[GPU] = (),
    ) -> list[StageReservation]:
        """Atomically reserve one GPU per stage (all succeed or none).

        ``scorer`` returns higher-is-better preference per GPU; ties and the
        no-scorer case fall back to most-free-memory-first, which steers
        placement away from fragmented devices.  ``stage_bonuses`` (one per
        stage, added to ``scorer``'s value, or used alone when there is no
        ``scorer``) lets a caller express *per-stage* preferences — e.g.
        warm-cache coverage of a stage's byte range on a specific server.

        When arbitration is on, the tenant's registered class gives its
        strict-priority rank.  A prioritised request that finds no
        feasible placement preempts strictly lower-priority *pending
        deploys* (never ACTIVE replicas) one at a time, retrying after
        each, before giving up — the preempt-or-wait rule.

        A failure carries an :class:`InfeasibleCertificate` only when a
        retry must fail the same way until capacity is added: no priority
        (so no preempt-or-wait), no elastic contracts (so no lender is
        pressed), and the memo proved the placement impossible.
        """
        priority = None
        if self.qos_priority_of is not None:
            priority = int(self.qos_priority_of(model))
        self._check_share(model, sum(mem_per_stage))
        try:
            reservations = self._place_memoised(
                model, mem_per_stage, scorer, exclude, stage_bonuses
            )
        except AllocationError as exc:
            if priority is None:
                self.failed_requests += 1
                if self.elastic_shares:
                    exc.certificate = None  # a pressed lender may free room
                self._press_lenders_on_failure(model, sum(mem_per_stage))
                raise
            try:
                reservations = self._place_with_preemption(
                    model, mem_per_stage, scorer, exclude, priority, stage_bonuses
                )
            except AllocationError:
                self._press_lenders_on_failure(model, sum(mem_per_stage))
                raise
        self.granted_requests += 1
        if self.elastic_shares and not self._over_commit(model):
            # The lender got what it wanted and is within its cap — its
            # open demand (if any) is moot.  An over-committed lender
            # keeps the demand its booking issued or kept open.
            for demand in self.reclaim_demands:
                if demand.resolved_at is None and demand.lender == model:
                    demand.resolved_at = self._clock()
        return reservations

    def _press_lenders_on_failure(self, model: str, nbytes: float) -> None:
        """A lender that cannot place while its headroom is lent out gets
        a reclaim demand: borrowers shed excess, the caller retries on its
        next control tick."""
        if not self.elastic_shares:
            return
        if self._lent_out(model) > _SHARE_EPS:
            self._demand_reclaim(model, nbytes)

    def _place_memoised(
        self,
        model: str,
        mem_per_stage: Sequence[float],
        scorer: Callable[[GPU], float] | None,
        exclude: Iterable[GPU],
        stage_bonuses: Sequence[Callable[[GPU], float]] | None,
    ) -> list[StageReservation]:
        """:meth:`_place_stages` behind the certified-infeasible memo.

        A retry of a placement certified impossible at the current
        capacity epoch raises without scanning the fleet.  Every certified
        failure, hit or new entry, carries its certificate.

        A tenant hosting no stage has every GPU eligible, so it is keyed
        by ``(None, sizes, banned)``: within an epoch capacity only
        shrinks and a tenant's hosting only grows (a release moves the
        epoch), so no matching for that key means none for any same-shape
        tenant until the epoch moves.  A tenant hosting a stage loses
        those GPUs to anti-affinity and keeps its own model key.
        """
        exclude = tuple(exclude)
        banned = frozenset(g.gid for g in exclude)
        owner = model if model in self.cluster.hosting_gpus else None
        key = (owner, tuple(mem_per_stage), banned)
        epoch = self.cluster.capacity_epoch
        if self._infeasible.get(key) == epoch:
            self.memo_hits += 1
            # Raised unbound: a local holding it would close a cycle
            # (exception -> traceback -> this frame -> exception) that only
            # the cyclic GC could free, once per memo hit.
            raise AllocationError(
                f"no placement for {model!r}: {len(mem_per_stage)} stages "
                f"exceed the eligible free fragments (certified at capacity "
                f"epoch {epoch})",
                InfeasibleCertificate(self, key),
            )
        try:
            reservations = self._place_stages(
                model, mem_per_stage, scorer, exclude, stage_bonuses
            )
        except AllocationError as exc:
            if self._matching_exists(owner, mem_per_stage, banned):
                self.failed_with_matching += 1
            else:
                self.new_certificates += 1
                self._infeasible[key] = epoch  # one entry per key, not per retry
                exc.certificate = InfeasibleCertificate(self, key)
            raise
        self.placed += 1
        return reservations

    def _matching_exists(
        self,
        model: str | None,
        mem_per_stage: Sequence[float],
        banned: frozenset[str],
    ) -> bool:
        """Could *any* scorer place every stage on the fleet as it is now?

        A stage fits an eligible GPU (not banned, not cordoned, not
        hosting ``model``; ``None``, a shape key, hosts nowhere) iff the
        GPU's free bytes reach the stage's size, so the stages' candidate
        sets are nested and Hall's condition reduces to one sorted pass:
        the i-th largest free fragment must hold the i-th largest stage.
        """
        free = sorted(
            (
                g.free_memory
                for g in self.cluster.gpus
                if g.gid not in banned
                and not g.cordoned
                and not g.hosts_model(model)
            ),
            reverse=True,
        )
        need = sorted(mem_per_stage, reverse=True)
        return len(free) >= len(need) and all(
            f >= m for f, m in zip(free, need)
        )

    def _place_stages(
        self,
        model: str,
        mem_per_stage: Sequence[float],
        scorer: Callable[[GPU], float] | None,
        exclude: Iterable[GPU],
        stage_bonuses: Sequence[Callable[[GPU], float]] | None = None,
    ) -> list[StageReservation]:
        """Choose one GPU per stage in a single scan of the fleet.

        Nothing changes between the stages of one placement (reservations
        happen after every stage is chosen), so one ``candidates`` call at
        the smallest stage's size covers every stage, each GPU's free
        memory is read once and its base score is computed at most once.
        Per stage the list is filtered by that stage's size and the GPUs
        already chosen; the winner is the first maximum of
        ``(base + bonus, free_memory)`` — or of free memory alone when
        neither is given — exactly as a per-stage ``max`` over a rescan.
        """
        if not mem_per_stage:
            return []
        pool = self.candidates(min(mem_per_stage), model=model, exclude=exclude)
        free = [gpu.free_memory for gpu in pool]
        base: list[float | None] = [None] * len(pool)
        taken = [False] * len(pool)
        chosen: list[GPU] = []
        for idx, mem in enumerate(mem_per_stage):
            bonus = stage_bonuses[idx] if stage_bonuses else None
            best = -1
            best_score = best_free = 0.0
            for i, gpu in enumerate(pool):
                f = free[i]
                if taken[i] or f < mem:
                    continue
                s = 0.0  # unscored: free memory alone decides
                if scorer is not None:
                    s = base[i]
                    if s is None:
                        s = base[i] = scorer(gpu)
                if bonus is not None:
                    s += bonus(gpu)
                if (
                    best < 0
                    or s > best_score
                    or (s == best_score and f > best_free)
                ):
                    best, best_score, best_free = i, s, f
            if best < 0:
                raise AllocationError(
                    f"no GPU with {mem / 2**30:.1f} GiB free for model "
                    f"{model!r} (stage {len(chosen)})"
                )
            taken[best] = True  # one stage per GPU within this replica
            chosen.append(pool[best])
        return [
            self.reserve_on(model, gpu, mem)
            for gpu, mem in zip(chosen, mem_per_stage)
        ]

    def _place_with_preemption(
        self,
        model: str,
        mem_per_stage: Sequence[float],
        scorer: Callable[[GPU], float] | None,
        exclude: Iterable[GPU],
        priority: int,
        stage_bonuses: Sequence[Callable[[GPU], float]] | None = None,
    ) -> list[StageReservation]:
        while True:
            victims = self._preemptible_victims(priority)
            # Dry-run before sacrificing anyone: preempt the smallest
            # least-important prefix whose freed memory makes the *whole*
            # multi-stage placement feasible.  If no prefix does, wait —
            # cancelling a loading deploy that cannot unblock us would
            # destroy its work for nothing.
            chosen = next(
                (
                    victims[:k]
                    for k in range(1, len(victims) + 1)
                    if self._feasible_with(model, mem_per_stage, exclude, victims[:k])
                ),
                None,
            )
            if chosen is None:
                self.failed_requests += 1
                raise AllocationError(
                    f"no feasible fragment for {model!r} (priority "
                    f"{priority}) and no set of lower-priority pending "
                    f"deploys would make one"
                )
            for claim in chosen:
                self._preempt(claim, model, priority)
            try:
                return self._place_stages(
                    model, mem_per_stage, scorer, exclude, stage_bonuses
                )
            except AllocationError:
                # A scorer can steer the real placement off the dry-run's
                # path; remaining victims get another round.
                continue

    def _feasible_with(
        self,
        model: str,
        mem_per_stage: Sequence[float],
        exclude: Iterable[GPU],
        freed: Sequence[PendingClaim],
    ) -> bool:
        """Would the placement succeed if ``freed`` claims were released?

        Mirrors :meth:`_place_stages`' greedy most-free-first choice over
        hypothetically adjusted free memory, without touching any state.
        """
        extra: dict[str, float] = {}
        for claim in freed:
            for res in claim.reservations:
                if not res.released:
                    extra[res.gpu.gid] = extra.get(res.gpu.gid, 0.0) + res.nbytes
        banned = {g.gid for g in exclude}

        def adjusted_free(gpu: GPU) -> float:
            return gpu.free_memory + extra.get(gpu.gid, 0.0)

        for mem in mem_per_stage:
            pool = [
                gpu
                for gpu in self.cluster.gpus
                if gpu.gid not in banned
                and not gpu.cordoned
                and not gpu.hosts_model(model)
                and adjusted_free(gpu) >= mem
            ]
            if not pool:
                return False
            best = max(pool, key=adjusted_free)
            extra[best.gid] = extra.get(best.gid, 0.0) - mem
            banned.add(best.gid)
        return True

    def release(self, reservation: StageReservation) -> None:
        """Return a reservation's memory to its GPU."""
        if reservation.released:
            raise AllocationError(f"double release of {reservation.res_id}")
        gpu = reservation.gpu
        gpu.release(reservation.res_id, model=reservation.model)
        reservation.released = True
        if self.live.pop(reservation.res_id, None) is not None:
            if self._live_on[gpu.gid] == 1:
                del self._live_on[gpu.gid]
            else:
                self._live_on[gpu.gid] -= 1
        self._book_tenant(reservation.model, -reservation.nbytes)

    def resize(self, reservation: StageReservation, nbytes: float) -> None:
        """Grow/shrink a live reservation (KV growth, post-refactor trim)."""
        if reservation.released:
            raise AllocationError(f"resize of released {reservation.res_id}")
        if nbytes > reservation.nbytes:
            self._check_share(reservation.model, nbytes - reservation.nbytes)
        reservation.gpu.resize(reservation.res_id, nbytes, model=reservation.model)
        self._book_tenant(reservation.model, nbytes - reservation.nbytes)
        reservation.nbytes = nbytes

    # ------------------------------------------------------------------
    def audit_balance(self) -> list[str]:
        """Cross-check live reservations against the per-GPU books.

        Returns human-readable discrepancies (empty when balanced); the
        invariant auditor turns these into ``memory-accounting``
        violations.  Kept here so the accounting contract lives next to
        the code that maintains it.
        """
        problems: list[str] = []
        # One allocation snapshot per GPU (not per reservation): this
        # runs on every chaos-audit tick.
        snapshots: dict[str, dict[str, float]] = {}
        tenant_live: dict[str, float] = {}
        live_on: dict[str, int] = {}
        for res_id, res in self.live.items():
            if res.released:
                problems.append(
                    f"{res_id} is marked released but still tracked live"
                )
            tenant_live[res.model] = tenant_live.get(res.model, 0.0) + res.nbytes
            live_on[res.gpu.gid] = live_on.get(res.gpu.gid, 0) + 1
            allocs = snapshots.get(res.gpu.gid)
            if allocs is None:
                allocs = snapshots[res.gpu.gid] = res.gpu.stage_allocations
            if res_id not in allocs:
                problems.append(
                    f"{res_id} ({res.model}) has no backing allocation "
                    f"on {res.gpu.gid}"
                )
            elif abs(allocs[res_id] - res.nbytes) > 1e-6:
                problems.append(
                    f"{res_id} bytes mismatch on {res.gpu.gid}: "
                    f"reservation {res.nbytes}, GPU {allocs[res_id]}"
                )
        # The incremental counts behind gpus_in_use and the memo's
        # hosting test must equal their recompute.
        if live_on != self._live_on:
            problems.append(
                f"live reservations per GPU are counted as {self._live_on} "
                f"but number {live_on}"
            )
        hosting: dict[str, int] = {}
        for gpu in self.cluster.gpus:
            for model in gpu.model_tags:
                hosting[model] = hosting.get(model, 0) + 1
        if hosting != self.cluster.hosting_gpus:
            problems.append(
                f"hosting GPUs per model are counted as "
                f"{self.cluster.hosting_gpus} but number {hosting}"
            )
        # A memo entry of the current epoch must still be infeasible when
        # the certificate is recomputed from live GPU state.
        epoch = self.cluster.capacity_epoch
        for (model, sizes, banned), stamp in self._infeasible.items():
            if stamp == epoch and self._matching_exists(model, sizes, banned):
                problems.append(
                    f"stale placement memo: {model or 'any tenant'} "
                    f"{len(sizes)}-stage placement certified infeasible at "
                    f"capacity epoch {epoch} now has a matching"
                )
        # Per-tenant running totals must mirror the live reservation set
        # exactly — the share-cap checks are only as sound as these books.
        for model in set(tenant_live) | set(self.tenant_reserved):
            recorded = self.tenant_reserved.get(model, 0.0)
            actual = tenant_live.get(model, 0.0)
            scale = max(actual, self.tenant_peak.get(model, 0.0))
            if abs(recorded - actual) > _share_eps(scale):
                problems.append(
                    f"tenant {model} books {recorded:.0f} bytes but live "
                    f"reservations sum to {actual:.0f}"
                )
        return problems

    def total_reserved(self) -> float:
        return sum(r.nbytes for r in self.live.values())

    def gpus_in_use(self) -> int:
        """GPUs holding at least one live reservation."""
        return len(self._live_on)
