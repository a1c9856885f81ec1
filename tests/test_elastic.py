"""Live in-place transitions, preemptible prepared claims, and elastic
share contracts: the executor/allocator mechanics plus the auditor and
fuzzer coverage that watches them."""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.cluster.allocator import AllocationError
from repro.cluster.cluster import make_paper_cluster
from repro.core.context import ServingContext
from repro.metrics.collector import MetricsCollector, RunSummary
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.refactoring.executor import RefactoringExecutor
from repro.scaling.warm_cache import HostParamCache
from repro.scenarios.driver import ScenarioCase, TenantQoS, run_scenario_case
from repro.scenarios.library import ELASTIC_CONTRACTS
from repro.scenarios.spec import ModelScript, ScenarioSpec
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.validation.auditor import InvariantAuditor
from repro.validation.chaos import chaos_spec
from repro.validation.migration_fuzz import (
    check_inplace_delta,
    fuzz_inplace_round,
    plan_inplace_delta,
    random_groups,
)
from repro.workloads.requests import RequestSampler


GB = 2**30
PINNED_BINDING_CAPS = Path(__file__).parent / "data" / "chaos-3-binding-caps.json"

# Priorities for the preemption tests: the refactoring tenant is
# batch-grade so an interactive claimant can cancel its preparation.
PRIO = {"LLAMA2-7B": 2, "it": 0}


def _stub_auditor(ctx, executors=None):
    """An auditor over just the allocator/sim/executors surface."""
    execs = dict(executors or {})
    return InvariantAuditor(
        SimpleNamespace(
            ctx=SimpleNamespace(allocator=ctx.allocator),
            sim=ctx.sim,
            executors=lambda: execs,
        )
    )


def _enable_elastic(ctx, share_caps, *, reclaim=None, reclaim_bound=60.0):
    allocator = ctx.allocator
    allocator.enable_arbitration(
        lambda m: PRIO.get(m, 1), share_caps=share_caps
    )
    allocator.enable_elastic_shares(
        clock=lambda: ctx.sim.now, reclaim=reclaim, reclaim_bound=reclaim_bound
    )
    return allocator


def _fill_gpus(allocator, model="background-fill"):
    for gpu in allocator.cluster.gpus:
        if gpu.free_memory > 0:
            allocator.reserve_on(model, gpu, gpu.free_memory)


# ----------------------------------------------------------------------
# In-place transitions at the executor
# ----------------------------------------------------------------------
class TestInPlaceTransitions:
    def _deploy(self, ctx, profile, ladder, n_stages, completed):
        plan = ladder.plan(n_stages)
        mems = plan.memory_per_stage(8, profile.spec.kv_bytes_per_request)
        reservations = ctx.allocator.allocate_stages(profile.spec.name, mems)
        replica = PipelineReplica(
            ctx.sim,
            profile,
            plan,
            reservations,
            batcher_config=BatcherConfig(max_batch=8, max_wait=0.01),
            on_request_complete=completed.append,
        )
        replica.activate()
        return replica

    @pytest.fixture
    def setup(self, ctx, llama_profile, bare_factory):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        metrics = MetricsCollector("test")
        executor = RefactoringExecutor(
            llama_profile,
            ladder,
            bare_factory(ctx, metrics, warm_cache=HostParamCache()),
        )
        executor.elastic = True
        return ctx, ladder, metrics, executor

    def test_cost_model_prefers_inplace_for_split(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        # Both rung boundaries survive a 2->4 split, so the delta is far
        # below a full second copy and the cost model picks in-place.
        assert executor._prefer_inplace(replica, 4)

    def test_split_reuses_surviving_reservations(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        old_res = [s.reservation for s in replica.stages]
        assert executor.refactor(replica, 4)
        _, plan, _ = executor._transitions[replica.name]
        assert plan.inplace
        # A 2->4 split keeps both old stage heads in place.
        assert len(plan.grown) == 2 and len(plan.owned) == 2
        ctx.sim.run_until_idle()
        assert replica.plan.n_stages == 4
        assert executor.transitions_inplace == 1
        assert executor.transitions_chain == 0
        assert replica.inplace_swaps == 1
        new_res = [s.reservation for s in replica.stages]
        for reservation, _old_bytes, final in plan.grown:
            # The same StageReservation object serves the new chain,
            # trimmed to its target footprint once the old chain retired.
            assert reservation in old_res and reservation in new_res
            assert reservation.nbytes == pytest.approx(final)
        assert not executor._shrink_to

    def test_inplace_has_no_service_gap(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 2, completed)
        sampler = RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))
        for _ in range(4):
            replica.submit(sampler.sample(ctx.sim.now))
        assert executor.refactor(replica, 4)
        ctx.sim.run_until_idle()
        assert replica.state is ReplicaState.ACTIVE
        assert len(completed) == 4
        assert len(executor.inplace_spans) == 1
        auditor = _stub_auditor(ctx, {"LLAMA2-7B": executor})
        assert auditor._check_inplace_service() == []
        assert auditor._check_prepared_claims() == []

    def test_abort_on_cordon_rolls_back_to_serving_chain(
        self, setup, llama_profile
    ):
        ctx, ladder, metrics, executor = setup
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 2, completed)
        assert executor.refactor(replica, 4)
        _, plan, _ = executor._transitions[replica.name]
        assert executor.abort_on_cordon(plan.owned[0].gpu) == 1
        assert executor.transitions_aborted == 1
        assert plan.token in executor.aborted_tokens
        # The old chain never stopped serving: 2 stages, grown shared
        # reservations resized back, fresh stages returned.
        assert replica.state is ReplicaState.ACTIVE
        assert replica.plan.n_stages == 2
        for reservation, old_bytes, _final in plan.grown:
            assert reservation.nbytes == pytest.approx(old_bytes)
        assert all(r.released for r in plan.owned)
        sampler = RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))
        replica.submit(sampler.sample(ctx.sim.now))
        ctx.sim.run_until_idle()
        assert executor.transitions_completed == 0
        assert len(completed) == 1
        assert _stub_auditor(
            ctx, {"LLAMA2-7B": executor}
        )._check_prepared_claims() == []

    def test_swap_stages_inplace_requires_active(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        reservations = [s.reservation for s in replica.stages]
        replica.drain()
        assert replica.state is not ReplicaState.ACTIVE
        with pytest.raises(RuntimeError, match="swap_stages_inplace"):
            replica.swap_stages_inplace(replica.plan, reservations)

    def test_chain_mode_still_counts_as_chain(self, ctx, llama_profile, bare_factory):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        executor = RefactoringExecutor(
            llama_profile, ladder, bare_factory(ctx, MetricsCollector("test"))
        )
        assert not executor.elastic
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert executor.refactor(replica, 4)
        ctx.sim.run_until_idle()
        assert executor.transitions_chain == 1
        assert executor.transitions_inplace == 0


class TestRepeatedInPlaceTransitions:
    """A second in-place transition that starts before the first one's old
    chain has retired must not lose its growth to the first one's trim."""

    @pytest.fixture
    def switched(self, llama_profile, bare_factory):
        """LLAMA2-7B at ``batch_cap=8`` on the paper cluster, 8 requests in
        flight, switched 2 -> 4 in place; the old chain still serves."""
        sim = Simulator()
        ctx = ServingContext.create(sim, make_paper_cluster(sim), RandomStreams(0))
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4, 8))
        metrics = MetricsCollector("test")
        factory = bare_factory(ctx, metrics, batch_cap=8)
        executor = RefactoringExecutor(llama_profile, ladder, factory)
        replica = TestInPlaceTransitions._deploy(
            self, ctx, llama_profile, ladder, 2, []
        )
        sampler = RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))
        for _ in range(8):
            replica.submit(sampler.sample(sim.now))
        first = executor._prepare(replica, 4, True)
        executor._switch(replica, first)
        assert executor._shrink_to  # the old chain has not retired yet
        return ctx, executor, replica

    @staticmethod
    def _retire_first_chain(ctx, executor):
        while executor._shrink_to and ctx.sim.pending_count():
            ctx.sim.run(max_events=1)
        assert not executor._shrink_to

    def test_first_retirement_keeps_second_growth(self, switched):
        ctx, executor, replica = switched
        second = executor._prepare(replica, 8, True)
        assert second.inplace
        prepared = {r.res_id: r.nbytes for r in second.reservations}
        self._retire_first_chain(ctx, executor)
        for reservation in second.reservations:
            assert reservation.nbytes >= prepared[reservation.res_id], (
                reservation.res_id
            )
        assert ctx.allocator.audit_balance() == []

    def test_rollback_after_first_retirement_restores_old_bytes(self, switched):
        ctx, executor, replica = switched
        second = executor._prepare(replica, 8, True)
        self._retire_first_chain(ctx, executor)
        executor._rollback(second.owned, second.grown)
        for reservation, old_bytes, _final in second.grown:
            assert reservation.nbytes == old_bytes, reservation.res_id
        assert all(r.released for r in second.owned)
        assert ctx.allocator.audit_balance() == []


# ----------------------------------------------------------------------
# Preemptible prepared claims
# ----------------------------------------------------------------------
class TestPreparedClaims:
    @pytest.fixture
    def setup(self, ctx, llama_profile, bare_factory):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        executor = RefactoringExecutor(
            llama_profile, ladder, bare_factory(ctx, MetricsCollector("test"))
        )
        executor.elastic = True
        return ctx, ladder, executor

    def _deploy(self, ctx, profile, ladder, n_stages, completed):
        return TestInPlaceTransitions._deploy(
            self, ctx, profile, ladder, n_stages, completed
        )

    def test_preparation_registers_prepared_chain_claim(
        self, setup, llama_profile
    ):
        ctx, ladder, executor = setup
        ctx.allocator.enable_arbitration(lambda m: PRIO.get(m, 1))
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert executor.refactor(replica, 4)
        _, plan, _ = executor._transitions[replica.name]
        claim = plan.claim
        assert claim is not None and claim.kind == "prepared-chain"
        assert claim in ctx.allocator.pending_claims()
        ctx.sim.run_until_idle()
        # The switch resolved the claim: it served, so it is now active.
        assert claim.state == "active"
        assert claim not in ctx.allocator.pending_claims()

    def test_preemption_cancels_preparation_old_chain_serves(
        self, setup, llama_profile
    ):
        ctx, ladder, executor = setup
        allocator = ctx.allocator
        allocator.enable_arbitration(lambda m: PRIO.get(m, 1))
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 2, completed)
        assert executor.refactor(replica, 4)
        _, plan, _ = executor._transitions[replica.name]
        _fill_gpus(allocator)
        # No free fragment remains; the interactive deploy must win the
        # batch tenant's in-flight preparation.
        it_res = allocator.allocate_stages("it", [2 * GB])
        assert len(it_res) == 1
        assert plan.claim.state == "preempted"
        assert allocator.preemptions[0].claim.kind == "prepared-chain"
        assert executor.transitions_aborted == 1
        assert plan.token in executor.aborted_tokens
        # The executor rolled back to the still-serving old chain.
        assert replica.state is ReplicaState.ACTIVE
        assert replica.plan.n_stages == 2
        sampler = RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))
        replica.submit(sampler.sample(ctx.sim.now))
        ctx.sim.run_until_idle()
        assert executor.transitions_completed == 0
        assert len(completed) == 1
        auditor = _stub_auditor(ctx, {"LLAMA2-7B": executor})
        assert auditor._check_prepared_claims() == []

    @pytest.mark.parametrize("inplace", [False, True], ids=["chain", "inplace"])
    def test_claim_covers_exactly_the_owned_reservations(
        self, setup, llama_profile, inplace
    ):
        ctx, ladder, executor = setup
        ctx.allocator.enable_arbitration(lambda m: PRIO.get(m, 1))
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        live = [s.reservation for s in replica.stages]
        plan = executor._prepare(replica, 4, inplace)
        executor._register_claim(replica, plan)
        # A chain transition owns its whole prepared chain; an in-place
        # one owns only the stages that could not survive — the grown
        # reservations back the serving chain and are never preemptible.
        assert plan.claim.reservations == plan.owned
        if inplace:
            assert [r for r, _old, _final in plan.grown] == live
            assert len(plan.owned) == 2
        else:
            assert plan.grown == [] and plan.owned == plan.reservations
        assert not set(map(id, plan.owned)) & set(map(id, live))
        ctx.allocator.claim_resolved(plan.claim, activated=False)
        executor._rollback(plan.owned, plan.grown)
        assert ctx.allocator.live == {r.res_id: r for r in live}
        assert ctx.allocator.audit_balance() == []

    def test_cordon_resolves_prepared_claim(self, setup, llama_profile):
        ctx, ladder, executor = setup
        ctx.allocator.enable_arbitration(lambda m: PRIO.get(m, 1))
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert executor.refactor(replica, 4)
        _, plan, _ = executor._transitions[replica.name]
        assert executor.abort_on_cordon(plan.reservations[0].gpu) == 1
        assert plan.claim.state == "released"
        assert plan.claim not in ctx.allocator.pending_claims()


# ----------------------------------------------------------------------
# Elastic share contracts at the allocator
# ----------------------------------------------------------------------
class TestBorrowLedger:
    def test_static_caps_reject_what_elastic_borrows(self, ctx):
        allocator = ctx.allocator
        fleet = allocator.fleet_memory()
        allocator.enable_arbitration(
            lambda m: PRIO.get(m, 1),
            share_caps={"it": 0.1, "batch": 0.5},
        )
        limit = 0.1 * fleet
        allocator.allocate_stages("it", [0.6 * limit, 0.4 * limit])
        with pytest.raises(AllocationError, match="share cap"):
            allocator.allocate_stages("it", [0.05 * fleet])

    def test_borrow_then_return_balances_the_ledger(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1, "batch": 0.5})
        fleet = allocator.fleet_memory()
        limit = 0.1 * fleet
        allocator.allocate_stages("it", [0.6 * limit, 0.4 * limit])
        extra = allocator.allocate_stages("it", [0.05 * fleet])
        assert len(extra) == 1
        assert allocator._borrowed_total("it") == pytest.approx(0.05 * fleet)
        assert allocator._borrows["it"] == {
            "batch": pytest.approx(0.05 * fleet)
        }
        assert allocator.borrow_events["it"] == 1
        assert allocator.bytes_borrowed["it"] == pytest.approx(0.05 * fleet)
        allocator.release(extra[0])
        assert not allocator._borrows
        assert allocator.bytes_returned["it"] == pytest.approx(
            allocator.bytes_borrowed["it"]
        )
        auditor = _stub_auditor(ctx)
        assert auditor._check_borrow_accounting() == []
        assert auditor._check_borrow_quiesce() == []

    def test_borrow_infeasible_beyond_lendable_capacity(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1, "batch": 0.05})
        fleet = allocator.fleet_memory()
        limit = 0.1 * fleet
        allocator.allocate_stages("it", [0.6 * limit, 0.4 * limit])
        with pytest.raises(AllocationError, match="elastic share cap"):
            allocator.allocate_stages("it", [0.07 * fleet])

    def test_uncapped_tenants_neither_lend_nor_borrow(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1})
        fleet = allocator.fleet_memory()
        limit = 0.1 * fleet
        gpu = allocator.cluster.gpus[0]
        # An uncapped tenant holds bytes without ever entering the ledger.
        allocator.reserve_on("free", gpu, 0.5 * gpu.memory)
        assert "free" not in allocator._borrows
        allocator.allocate_stages("it", [0.6 * limit, 0.4 * limit])
        # No other *capped* tenant exists, so there is nothing to borrow.
        with pytest.raises(AllocationError, match="elastic share cap"):
            allocator.allocate_stages("it", [0.05 * fleet])

    def test_lender_demand_presses_borrower_and_resolves(self, ctx):
        reclaims = []
        allocator = _enable_elastic(
            ctx,
            {"it": 0.1, "batch": 0.3},
            reclaim=lambda borrower, nbytes: reclaims.append(
                (borrower, nbytes)
            ),
        )
        fleet = allocator.fleet_memory()
        allocator.allocate_stages("it", [0.06 * fleet, 0.04 * fleet])
        borrowed = allocator.allocate_stages("it", [0.05 * fleet])
        assert allocator._lent_out("batch") == pytest.approx(0.05 * fleet)
        # The lender's own demand returns but cannot place while its
        # headroom is lent out: the failure presses its borrowers.
        _fill_gpus(allocator)
        with pytest.raises(AllocationError):
            allocator.allocate_stages("batch", [2 * GB])
        demands = allocator.open_reclaim_demands()
        assert len(demands) == 1 and demands[0].lender == "batch"
        assert demands[0].nbytes == pytest.approx(2 * GB)
        assert reclaims == [("it", pytest.approx(2 * GB))]
        # The pressed lender has an open demand, so the books still audit.
        assert _stub_auditor(ctx)._check_borrow_accounting() == []
        # Draining the borrower's excess repays the pressed lender and
        # resolves the demand.
        allocator.release(borrowed[0])
        assert allocator.open_reclaim_demands() == []
        assert demands[0].resolved_at is not None

    def _lend_a_tenth(self, ctx):
        """``it`` borrows 0.1 of the fleet from ``batch`` (cap 0.3)."""
        allocator = _enable_elastic(
            ctx, {"it": 0.1, "batch": 0.3}, reclaim=lambda b, n: None
        )
        fleet = allocator.fleet_memory()
        allocator.allocate_stages("it", [0.06 * fleet, 0.04 * fleet])
        small = allocator.allocate_stages("it", [0.02 * fleet])
        allocator.allocate_stages("it", [0.04 * fleet, 0.04 * fleet])
        assert allocator._lent_out("batch") == pytest.approx(0.1 * fleet)
        held = allocator.allocate_stages("batch", [0.05 * fleet] * 4)
        # own 0.2 + lent 0.1 sits exactly at the 0.3 cap: no demand yet.
        assert allocator.open_reclaim_demands() == []
        return allocator, fleet, small[0], held

    def test_lender_over_committed_by_its_own_deploy_keeps_a_demand(self, ctx):
        """A lender whose successful deploy pushes own + lent over its cap
        must be left with an open demand — placing is not the same as
        getting the lent headroom back."""
        allocator, fleet, small, _ = self._lend_a_tenth(ctx)
        allocator.allocate_stages("batch", [0.02 * fleet])
        (demand,) = allocator.open_reclaim_demands()
        assert demand.lender == "batch"
        assert demand.nbytes == pytest.approx(0.02 * fleet)
        assert _stub_auditor(ctx)._check_borrow_accounting() == []
        # Repaying the excess resolves it; the lender is back at its cap.
        allocator.release(small)
        assert allocator.open_reclaim_demands() == []
        assert _stub_auditor(ctx)._check_borrow_accounting() == []

    def test_lender_still_over_committed_after_its_demand_resolves(self, ctx):
        """A demand met at its issue-time target must not leave its lender
        over-committed and unpressed.  While one demand is open the
        lender's own reservations keep growing (no second demand stacks),
        so when the borrower repays just that first demand the lender is
        still over its cap and needs a fresh demand."""
        allocator, fleet, small, held = self._lend_a_tenth(ctx)
        allocator.resize(held[0], 0.07 * fleet)
        (first,) = allocator.open_reclaim_demands()
        assert first.target_lent == pytest.approx(0.08 * fleet)
        # The lender keeps growing while its demand is open.
        allocator.resize(held[1], 0.08 * fleet)
        assert allocator.open_reclaim_demands() == [first]
        # Repaying 0.02 meets the first demand's target, but own 0.25 +
        # lent 0.08 is still over the cap: a second demand takes over.
        allocator.release(small)
        assert first.resolved_at is not None
        (second,) = allocator.open_reclaim_demands()
        assert second.lender == "batch"
        assert second.nbytes == pytest.approx(0.03 * fleet)
        assert _stub_auditor(ctx)._check_borrow_accounting() == []

    def test_share_headroom_includes_lendable_contracts(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1, "batch": 0.3})
        fleet = allocator.fleet_memory()
        assert allocator.share_headroom("it") == pytest.approx(0.4 * fleet)
        assert allocator.share_headroom("free") == float("inf")


# ----------------------------------------------------------------------
# Auditor checks for the new machinery
# ----------------------------------------------------------------------
class TestElasticAuditor:
    def test_cooked_ledger_mismatch_flagged(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1, "batch": 0.5})
        allocator._borrows["it"] = {"batch": 5 * GB}  # no backing overage
        out = _stub_auditor(ctx)._check_borrow_accounting()
        assert any(v.invariant == "borrow-accounting" for v in out)

    def test_uncapped_tenant_with_ledger_flagged(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1})
        allocator._borrows["free"] = {"it": 1 * GB}
        out = _stub_auditor(ctx)._check_borrow_accounting()
        assert any("uncapped" in v.detail for v in out)

    def test_uncovered_overage_peak_flagged(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1})
        allocator.tenant_overage_peak["it"] = 1 * GB
        out = _stub_auditor(ctx)._check_borrow_accounting()
        assert any("beyond what the borrow ledger" in v.detail for v in out)

    def test_overcommitted_lender_without_demand_flagged(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1, "batch": 0.3})
        fleet = allocator.fleet_memory()
        allocator._borrows["it"] = {"batch": 0.05 * fleet}
        allocator.tenant_reserved["it"] = 0.15 * fleet
        allocator.tenant_reserved["batch"] = 0.29 * fleet
        out = _stub_auditor(ctx)._check_borrow_accounting()
        assert any("no open reclaim demand" in v.detail for v in out)

    def test_stale_reclaim_demand_breaks_latency_bound(self, ctx):
        reclaim_bound = 10.0
        allocator = _enable_elastic(
            ctx, {"it": 0.1, "batch": 0.3}, reclaim_bound=reclaim_bound
        )
        fleet = allocator.fleet_memory()
        allocator.allocate_stages("it", [0.06 * fleet, 0.04 * fleet])
        allocator.allocate_stages("it", [0.05 * fleet])
        _fill_gpus(allocator)
        with pytest.raises(AllocationError):
            allocator.allocate_stages("batch", [2 * GB])
        assert allocator.open_reclaim_demands()
        auditor = _stub_auditor(ctx)
        assert not any(
            v.invariant == "borrow-reclaim-latency"
            for v in auditor._check_borrow_accounting()
        )
        ctx.sim.schedule(reclaim_bound + 1.0, lambda: None)
        ctx.sim.run_until_idle()
        out = auditor._check_borrow_accounting()
        assert any(v.invariant == "borrow-reclaim-latency" for v in out)

    def test_quiesce_requires_every_byte_returned(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1, "batch": 0.5})
        allocator.bytes_borrowed["it"] = 8 * GB
        allocator.bytes_returned["it"] = 6 * GB
        out = _stub_auditor(ctx)._check_borrow_quiesce()
        assert any("returned" in v.detail for v in out)

    def test_elastic_share_cap_covered_by_ledger(self, ctx):
        allocator = _enable_elastic(ctx, {"it": 0.1, "batch": 0.5})
        fleet = allocator.fleet_memory()
        allocator.tenant_reserved["it"] = 0.15 * fleet
        allocator._borrows["it"] = {"batch": 0.05 * fleet}
        auditor = _stub_auditor(ctx)
        assert auditor._check_share_caps() == []
        # Beyond what the ledger covers the cap violation stands.
        allocator.tenant_reserved["it"] = 0.2 * fleet
        out = auditor._check_share_caps()
        assert any(v.invariant == "share-cap" for v in out)

    def test_switched_and_aborted_tokens_must_be_disjoint(self, ctx):
        executor = SimpleNamespace(
            switched_tokens={1, 2},
            aborted_tokens={2},
            inplace_spans=[],
        )
        out = _stub_auditor(
            ctx, {"LLAMA2-7B": executor}
        )._check_prepared_claims()
        assert any(v.invariant == "prepared-claim" for v in out)

    def test_state_change_inside_inplace_span_flagged(self, ctx):
        replica = SimpleNamespace(
            name="r0", state_history=[(1.5, ReplicaState.DRAINING)]
        )
        executor = SimpleNamespace(
            switched_tokens=set(),
            aborted_tokens=set(),
            inplace_spans=[(replica, 1.0, 2.0)],
        )
        out = _stub_auditor(
            ctx, {"LLAMA2-7B": executor}
        )._check_inplace_service()
        assert any(v.invariant == "inplace-service-gap" for v in out)
        # The same history outside the span is fine.
        executor.inplace_spans = [(replica, 2.0, 3.0)]
        assert _stub_auditor(
            ctx, {"LLAMA2-7B": executor}
        )._check_inplace_service() == []


# ----------------------------------------------------------------------
# In-place delta oracle in the migration fuzzer
# ----------------------------------------------------------------------
class TestInplaceFuzzOracle:
    UNIT_PARAMS = [4.0, 4.0, 4.0, 4.0]
    UNIT_KV = [1.0, 1.0, 1.0, 1.0]
    OLD = [(0, 2), (2, 4)]
    NEW = [(0, 1), (1, 2), (2, 4)]

    def test_oracle_accepts_executor_plan(self):
        deltas = plan_inplace_delta(
            self.OLD, self.NEW, self.UNIT_PARAMS, self.UNIT_KV
        )
        assert (
            check_inplace_delta(
                self.OLD, self.NEW, self.UNIT_PARAMS, self.UNIT_KV, deltas
            )
            == []
        )

    def test_oracle_detects_poisoned_delta(self):
        deltas = plan_inplace_delta(
            self.OLD, self.NEW, self.UNIT_PARAMS, self.UNIT_KV
        )
        poisoned = [dict(d) for d in deltas]
        target = next(d for d in poisoned if d["reused"])
        target["param_delta_bytes"] += target["resident_param_bytes"]
        out = check_inplace_delta(
            self.OLD, self.NEW, self.UNIT_PARAMS, self.UNIT_KV, poisoned
        )
        assert out and all(v.invariant == "inplace-delta" for v in out)

    def test_random_groups_partition_the_lattice(self):
        rng = RandomStreams(7).stream("t")
        for _ in range(20):
            groups = random_groups(rng, 12)
            assert groups[0][0] == 0 and groups[-1][1] == 12
            for (_, hi), (lo, _) in zip(groups, groups[1:]):
                assert hi == lo

    def test_fuzz_round_is_clean_and_schedules_items(self):
        rng = RandomStreams(0).stream("inplace-fuzz")
        violations, n_items = fuzz_inplace_round(rng)
        assert violations == []
        assert n_items > 0


# ----------------------------------------------------------------------
# Chaos/scenario configuration surface
# ----------------------------------------------------------------------
class TestElasticConfig:
    ELASTIC_SEEDS = (3, 7)  # paper-cluster seeds on the capped fleets

    def test_chaos_caps_must_name_a_tenant(self):
        # A cap is a field of a tenant's script, and a tenant must be a
        # known model: a cap on anything else is rejected.
        spec = chaos_spec(3)
        with pytest.raises(ValueError):
            replace(
                spec, models=spec.models + (ModelScript("NOPE", share_cap=0.5),)
            )

    def test_chaos_caps_must_be_a_fraction(self):
        spec = chaos_spec(3)
        with pytest.raises(ValueError, match="share_cap"):
            replace(spec.models[0], share_cap=1.5)

    def test_chaos_elastic_needs_classes(self):
        # Elastic contracts only act through the QoS control plane, so
        # every elastic chaos spec is a fully classed fleet.
        elastic = [s for s in map(chaos_spec, range(32)) if s.elastic]
        assert elastic
        for spec in elastic:
            assert spec.qos_enabled
            assert all(m.slo_class is not None for m in spec.models)

    def test_chaos_spec_arms_caps_and_elastic(self):
        armed = [s for s in map(chaos_spec, range(24)) if s.elastic]
        assert {int(s.name.split("-")[1]) for s in armed} >= set(
            self.ELASTIC_SEEDS
        )
        for spec in armed:
            assert spec.cluster == "paper"
            # At least two capped tenants, so one can lend to the other.
            assert sum(m.share_cap is not None for m in spec.models) >= 2
        # ...and the OPT-66B fleet stays uncapped and static.
        uncapped = [
            s
            for s in map(chaos_spec, range(24))
            if "OPT-66B" in s.model_names
        ]
        assert uncapped and all(not s.elastic for s in uncapped)
        assert all(m.share_cap is None for s in uncapped for m in s.models)

    @pytest.mark.parametrize("system", ("FlexPipe", "DistServe"))
    def test_binding_caps_borrow_and_audit_clean(self, system):
        """Regression, pinned as generated (``chaos_spec(3)``): with
        binding 3% caps this spec used to leave a lender over-committed
        with no open reclaim demand — its own deploy's demand was dropped
        as moot, and a demand met at its issue-time target was never
        renewed although the lender had grown past it."""
        spec = ScenarioSpec.from_json(PINNED_BINDING_CAPS.read_text())
        report = run_scenario_case(ScenarioCase(spec, system, 3))
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert sum(t.borrows for t in report.tenants.values()) > 0
        assert sum(t.reclaims for t in report.tenants.values()) > 0

    def test_scenario_spec_elastic_round_trips(self):
        assert ELASTIC_CONTRACTS.elastic
        clone = ScenarioSpec.from_dict(ELASTIC_CONTRACTS.to_dict())
        assert clone.elastic and clone.name == ELASTIC_CONTRACTS.name
        assert ELASTIC_CONTRACTS.quick().elastic

    def test_qos_rows_carry_contract_counters(self):
        tenant_defaults = {
            f.name: f.default for f in dataclass_fields(TenantQoS)
        }
        summary_defaults = {
            f.name: f.default for f in dataclass_fields(RunSummary)
        }
        for counter in (
            "preemptions_won",
            "preemptions_lost",
            "borrows",
            "reclaims",
        ):
            assert tenant_defaults[counter] == 0
            assert summary_defaults[counter] == 0
