"""Class-aware GPU arbitration: priority preempt-or-wait, per-tenant
share caps, and the factory/auditor integration around both."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cluster.allocator import AllocationError, PendingClaim, PreemptionRecord
from repro.core.deployment import ReplicaFactory
from repro.metrics.collector import MetricsCollector
from repro.models.zoo import get_model
from repro.pipeline.replica import ReplicaState
from repro.pipeline.router import ModelRouter
from repro.validation.auditor import InvariantAuditor

GB = 2**30

# Strict-priority ranks used throughout: "it" is interactive-grade (0),
# "std" standard (1), "batch" batch-grade (2).
PRIORITIES = {"it": 0, "std": 1, "batch": 2, "LLAMA2-7B": 0, "BERT-21B": 2}


def enable(allocator, share_caps=None):
    allocator.enable_arbitration(PRIORITIES.__getitem__, share_caps=share_caps)


def fill_gpus(allocator, *, leave=(), model="background-fill"):
    """Absorb every free byte, leaving ``leave[i]`` bytes on GPU ``i``."""
    for i, gpu in enumerate(allocator.cluster.gpus):
        slack = leave[i] if i < len(leave) else 0.0
        amount = gpu.free_memory - slack
        if amount > 0:
            allocator.reserve_on(model, gpu, amount)


def claim_for(allocator, model, reservations):
    """Register a pending claim whose cancel releases the reservations —
    the shape ReplicaFactory wires up via replica.drain."""
    return allocator.register_pending_deploy(
        model,
        reservations,
        lambda: [
            allocator.release(r) for r in reservations if not r.released
        ],
    )


# ----------------------------------------------------------------------
# Preempt-or-wait at the allocator
# ----------------------------------------------------------------------
class TestPreemption:
    def test_urgent_class_preempts_lower_class_pending_deploy(self, ctx):
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator, leave=(10 * GB, 10 * GB))
        batch_res = allocator.allocate_stages("batch", [8 * GB, 8 * GB])
        claim = claim_for(allocator, "batch", batch_res)
        # No free fragment is left; the interactive deploy must win the
        # pending batch deploy's slots.
        it_res = allocator.allocate_stages("it", [8 * GB, 8 * GB])
        assert len(it_res) == 2
        assert all(r.released for r in batch_res)
        assert allocator.preempted_deploys == 1
        assert claim.state == "preempted"
        record = allocator.preemptions[0]
        assert record.victim_model == "batch"
        assert record.claimant_model == "it"

    def test_without_arbitration_allocation_just_fails(self, ctx):
        """Pre-existing behaviour: QoS off, a blocked deploy waits."""
        allocator = ctx.allocator
        fill_gpus(allocator, leave=(10 * GB,))
        res = allocator.allocate_stages("batch", [8 * GB])
        allocator.register_pending_deploy(
            "batch", res, lambda: None
        )  # no-op while arbitration is off
        with pytest.raises(AllocationError):
            allocator.allocate_stages("it", [8 * GB])
        assert allocator.preempted_deploys == 0
        assert not res[0].released

    def test_equal_or_higher_priority_never_preempted(self, ctx):
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator, leave=(10 * GB,))
        it_res = allocator.allocate_stages("it", [8 * GB])
        claim = claim_for(allocator, "it", it_res)
        # Same class cannot preempt...
        with pytest.raises(AllocationError):
            allocator.allocate_stages("it", [8 * GB])
        # ...and a lower class certainly cannot.
        with pytest.raises(AllocationError):
            allocator.allocate_stages("batch", [8 * GB])
        assert claim.state == "pending"
        assert allocator.preempted_deploys == 0

    def test_activated_deploy_is_no_longer_preemptible(self, ctx):
        """Never preempt ACTIVE replicas: once a claim resolves, an
        urgent deploy waits instead."""
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator, leave=(10 * GB,))
        batch_res = allocator.allocate_stages("batch", [8 * GB])
        claim = claim_for(allocator, "batch", batch_res)
        allocator.claim_resolved(claim, activated=True)
        with pytest.raises(AllocationError):
            allocator.allocate_stages("it", [8 * GB])
        assert claim.state == "active"
        assert allocator.preempted_deploys == 0

    def test_least_important_youngest_victim_goes_first(self, ctx):
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator, leave=(10 * GB, 10 * GB))
        std_res = allocator.allocate_stages("std", [8 * GB])
        std_claim = claim_for(allocator, "std", std_res)
        batch_res = allocator.allocate_stages("batch", [8 * GB])
        batch_claim = claim_for(allocator, "batch", batch_res)
        allocator.allocate_stages("it", [8 * GB])
        # One slot sufficed: only the batch-class claim was sacrificed.
        assert batch_claim.state == "preempted"
        assert std_claim.state == "pending"
        assert not std_res[0].released

    def test_hopeless_victims_are_not_preempted(self, ctx):
        """Preempt-or-wait picks *wait* when no victim's memory could
        complete a feasible fragment — no pointless sacrifice."""
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator, leave=(GB,))
        batch_res = allocator.allocate_stages("batch", [0.5 * GB])
        claim = claim_for(allocator, "batch", batch_res)
        with pytest.raises(AllocationError):
            allocator.allocate_stages("it", [50 * GB])
        assert claim.state == "pending"
        assert allocator.preempted_deploys == 0

    def test_multi_stage_hopeless_victim_not_sacrificed(self, ctx):
        """The dry-run must judge the *whole* placement: a victim whose
        memory covers one stage but cannot unblock a two-stage request is
        left alone (preempting it would destroy its deploy for nothing)."""
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator, leave=(10 * GB,))
        batch_res = allocator.allocate_stages("batch", [8 * GB])
        claim = claim_for(allocator, "batch", batch_res)
        # Two stages needed, but even with the victim gone only one GPU
        # has room: wait, do not preempt.
        with pytest.raises(AllocationError):
            allocator.allocate_stages("it", [8 * GB, 8 * GB])
        assert claim.state == "pending"
        assert not batch_res[0].released
        assert allocator.preempted_deploys == 0

    def test_jointly_sufficient_victims_both_preempted(self, ctx):
        """Two lower-class claims that only *together* free enough are
        both chosen by the dry-run in one shot."""
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator, leave=(10 * GB, 10 * GB))
        first = allocator.allocate_stages("batch", [8 * GB])
        second = allocator.allocate_stages("batch", [8 * GB])
        claim_a = claim_for(allocator, "batch", first)
        claim_b = claim_for(allocator, "batch", second)
        allocator.allocate_stages("it", [8 * GB, 8 * GB])
        assert claim_a.state == "preempted"
        assert claim_b.state == "preempted"
        assert allocator.preempted_deploys == 2

    def test_failed_preemption_counts_one_failed_request(self, ctx):
        allocator = ctx.allocator
        enable(allocator)
        fill_gpus(allocator)
        with pytest.raises(AllocationError):
            allocator.allocate_stages("it", [8 * GB])
        assert allocator.failed_requests == 1


# ----------------------------------------------------------------------
# Per-tenant share caps
# ----------------------------------------------------------------------
class TestShareCaps:
    def test_allocation_exactly_at_cap_succeeds(self, ctx):
        allocator = ctx.allocator
        fleet = allocator.fleet_memory()
        enable(allocator, share_caps={"batch": 0.25})
        allocator.allocate_stages("batch", [fleet * 0.25 / 3] * 3)
        assert allocator.tenant_share("batch") == pytest.approx(0.25)

    def test_one_byte_over_cap_is_refused(self, ctx):
        allocator = ctx.allocator
        enable(allocator, share_caps={"batch": 0.25})
        allocator.allocate_stages(
            "batch", [allocator.fleet_memory() * 0.25 / 3] * 3
        )
        with pytest.raises(AllocationError, match="share cap"):
            allocator.allocate_stages("batch", [1 * GB])
        # The uncapped tenant is untouched by its neighbour's cap.
        assert allocator.allocate_stages("it", [1 * GB])

    def test_release_restores_headroom(self, ctx):
        allocator = ctx.allocator
        enable(allocator, share_caps={"batch": 0.1})
        cap_bytes = 0.1 * allocator.fleet_memory()
        reservations = allocator.allocate_stages("batch", [cap_bytes / 2] * 2)
        assert allocator.share_headroom("batch") == pytest.approx(0.0)
        allocator.release(reservations[0])
        assert allocator.share_headroom("batch") == pytest.approx(cap_bytes / 2)
        allocator.allocate_stages("batch", [cap_bytes / 2])

    def test_peak_share_is_a_high_water_mark(self, ctx):
        allocator = ctx.allocator
        enable(allocator)
        reservations = allocator.allocate_stages("batch", [24 * GB])
        peak = allocator.tenant_peak_share("batch")
        allocator.release(reservations[0])
        assert allocator.tenant_share("batch") == 0.0
        assert allocator.tenant_peak_share("batch") == pytest.approx(peak)

    def test_resize_growth_respects_the_cap(self, ctx):
        allocator = ctx.allocator
        enable(allocator, share_caps={"batch": 0.05})
        cap_bytes = 0.05 * allocator.fleet_memory()
        (reservation,) = allocator.allocate_stages("batch", [cap_bytes - 8 * GB])
        with pytest.raises(AllocationError, match="share cap"):
            allocator.resize(reservation, cap_bytes + GB)
        allocator.resize(reservation, cap_bytes)  # exactly at cap: fine
        allocator.resize(reservation, cap_bytes / 2)  # shrink always fine
        assert allocator.tenant_reserved["batch"] == pytest.approx(cap_bytes / 2)

    def test_share_headroom_uncapped_is_infinite(self, ctx):
        import math

        assert math.isinf(ctx.allocator.share_headroom("anything"))

    def test_invalid_cap_rejected(self, ctx):
        with pytest.raises(ValueError, match="share cap"):
            enable(ctx.allocator, share_caps={"batch": 1.5})

    def test_audit_balance_catches_cooked_tenant_books(self, ctx):
        allocator = ctx.allocator
        allocator.allocate_stages("batch", [8 * GB])
        assert allocator.audit_balance() == []
        allocator.tenant_reserved["batch"] += 123 * GB
        problems = allocator.audit_balance()
        assert any("tenant batch" in p for p in problems)


# ----------------------------------------------------------------------
# Through the replica factory (the real preemption cancel path)
# ----------------------------------------------------------------------
class TestFactoryArbitration:
    def _factory(self, ctx):
        llama, bert = get_model("LLAMA2-7B"), get_model("BERT-21B")
        routers = {
            m.name: ModelRouter(ctx.sim, m.name) for m in (llama, bert)
        }
        factory = ReplicaFactory(
            ctx,
            routers=routers,
            metrics=MetricsCollector("test"),
            on_request_complete=lambda r: None,
            batch_cap=8,
        )
        profiles = {m.name: ctx.profile(m) for m in (llama, bert)}
        plans = {
            m.name: ctx.ladder(m, (2,)).plan(2) for m in (llama, bert)
        }
        return factory, profiles, plans

    def test_interactive_deploy_preempts_loading_batch_deploy(self, ctx):
        factory, profiles, plans = self._factory(ctx)
        allocator = ctx.allocator
        enable(allocator)
        victim = factory.deploy(profiles["BERT-21B"], plans["BERT-21B"])
        assert victim.state is ReplicaState.LOADING
        assert victim.pending_claim is not None
        held = list(victim.live_reservations())
        fill_gpus(allocator)  # nothing else is feasible now
        winner = factory.deploy(profiles["LLAMA2-7B"], plans["LLAMA2-7B"])
        # The loading batch deploy was drained through the normal teardown
        # path: reservations back exactly once, replica RELEASED, and the
        # interactive deploy holds the freed fragment.
        assert allocator.preempted_deploys == 1
        assert victim.state is ReplicaState.RELEASED
        assert all(r.released for r in held)
        assert victim.anomalies == []
        assert winner.state is ReplicaState.LOADING
        ctx.sim.run_until_idle()
        # The victim never serves; the winner activates normally.
        assert victim.state is ReplicaState.RELEASED
        assert winner.state is ReplicaState.ACTIVE
        assert winner.pending_claim.state == "active"

    def test_claims_resolve_on_normal_activation(self, ctx):
        factory, profiles, plans = self._factory(ctx)
        enable(ctx.allocator)
        replica = factory.deploy(profiles["LLAMA2-7B"], plans["LLAMA2-7B"])
        assert replica.pending_claim.state == "pending"
        ctx.sim.run_until_idle()
        assert replica.pending_claim.state == "active"
        assert ctx.allocator.pending_claims() == []

    def test_share_cap_loses_the_scale_out_race(self, ctx):
        """Cap + scale-out race: the capped tenant at its limit is refused
        the freed fragment; the other tenant takes it."""
        factory, profiles, plans = self._factory(ctx)
        allocator = ctx.allocator
        kv = profiles["BERT-21B"].spec.kv_bytes_per_request
        replica_bytes = sum(plans["BERT-21B"].memory_per_stage(8, kv))
        enable(
            allocator,
            share_caps={
                "BERT-21B": 1.5 * replica_bytes / allocator.fleet_memory()
            },
        )
        factory.deploy(profiles["BERT-21B"], plans["BERT-21B"])
        with pytest.raises(AllocationError, match="share cap"):
            factory.deploy(profiles["BERT-21B"], plans["BERT-21B"])
        # The race's loser leaves the fragment to the interactive tenant.
        winner = factory.deploy(profiles["LLAMA2-7B"], plans["LLAMA2-7B"])
        assert winner.state is ReplicaState.LOADING


# ----------------------------------------------------------------------
# Auditor detection power for the new invariants
# ----------------------------------------------------------------------
def _stub_auditor(ctx):
    system = SimpleNamespace(ctx=SimpleNamespace(allocator=ctx.allocator))
    return InvariantAuditor(system)


class TestArbitrationInvariants:
    def test_clean_books_audit_clean(self, ctx):
        enable(ctx.allocator, share_caps={"batch": 0.5})
        ctx.allocator.allocate_stages("batch", [8 * GB])
        auditor = _stub_auditor(ctx)
        assert auditor._check_share_caps() == []
        assert auditor._check_preemption_accounting(expect_no_pending=False) == []

    def test_live_over_cap_detected(self, ctx):
        allocator = ctx.allocator
        allocator.allocate_stages("batch", [40 * GB])
        enable(allocator, share_caps={"batch": 0.01})  # cap set below holdings
        violations = _stub_auditor(ctx)._check_share_caps()
        assert any(v.invariant == "share-cap" for v in violations)

    def test_transient_peak_over_cap_detected(self, ctx):
        allocator = ctx.allocator
        enable(allocator, share_caps={"batch": 0.05})
        reservations = allocator.allocate_stages(
            "batch", [0.05 * allocator.fleet_memory()]
        )
        allocator.tenant_peak["batch"] = 0.06 * allocator.fleet_memory()
        allocator.release(reservations[0])
        violations = _stub_auditor(ctx)._check_share_caps()
        assert any("peaked" in v.detail for v in violations)

    def test_leaked_preempted_reservation_detected(self, ctx):
        allocator = ctx.allocator
        enable(allocator)
        reservations = allocator.allocate_stages("batch", [8 * GB])
        claim = PendingClaim(0, "batch", 2, list(reservations), lambda: None)
        claim.state = "preempted"
        allocator.preemptions.append(
            PreemptionRecord("batch", 2, "it", 0, claim, tuple(reservations))
        )
        violations = _stub_auditor(ctx)._check_preemption_accounting(
            expect_no_pending=False
        )
        assert any("still holds" in v.detail for v in violations)

    def test_unresolved_pending_claim_detected_at_quiesce(self, ctx):
        allocator = ctx.allocator
        enable(allocator)
        reservations = allocator.allocate_stages("batch", [8 * GB])
        claim_for(allocator, "batch", reservations)
        violations = _stub_auditor(ctx)._check_preemption_accounting(
            expect_no_pending=True
        )
        assert any("never resolved" in v.detail for v in violations)
