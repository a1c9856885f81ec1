"""The retention rule (``reuse_plan``) and everything that reads it.

A target stage keeps its GPU when its leading fine range is already
resident there; everything else loads or migrates.  The executor's
reservation loop, its cost model and the migration fuzzer's byte view all
run this one rule, so these tests pin the rule itself, its fine-unit byte
view, and the executor's preparation against it on real ladders.
"""

from __future__ import annotations

import itertools

import pytest

from repro.cluster.allocator import AllocationError
from repro.cluster.cluster import make_paper_cluster
from repro.core.context import ServingContext
from repro.metrics.collector import MetricsCollector
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica
from repro.refactoring.executor import RefactoringExecutor, reuse_plan
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.validation.migration_fuzz import check_inplace_delta, plan_inplace_delta

COUNTS = (2, 4, 8, 16, 32)


@pytest.fixture(scope="module")
def ladder(opt_profile):
    return GranularityLadder(opt_profile, stage_counts=COUNTS)


def _delta(ladder, src, dst):
    """Per-stage fine-unit byte view of the ``src -> dst`` transition."""
    fine = ladder.fine_plan.stages
    unit_params = [s.param_bytes for s in fine]
    unit_kv = [s.profile.kv_bytes_per_token for s in fine]
    old, new = ladder.rung(src).groups, ladder.rung(dst).groups
    deltas = plan_inplace_delta(old, new, unit_params, unit_kv)
    assert check_inplace_delta(old, new, unit_params, unit_kv, deltas) == []
    return deltas


class TestReusePlan:
    def test_owner_and_head_alignment(self):
        old = [(0, 2), (2, 4)]
        new = [(0, 1), (1, 2), (2, 4)]
        assert reuse_plan(old, new) == [(0, True), (0, False), (1, True)]

    def test_merge_keeps_each_merged_stage_head(self):
        assert reuse_plan([(0, 1), (1, 2), (2, 4)], [(0, 2), (2, 4)]) == [
            (0, True),
            (2, True),
        ]

    def test_misaligned_boundary_reuses_nothing_but_the_head(self):
        assert reuse_plan([(0, 3), (3, 6)], [(0, 2), (2, 4), (4, 6)]) == [
            (0, True),
            (0, False),
            (1, False),
        ]


class TestTransitionDiff:
    def test_split_reuses_aligned_stages(self, ladder):
        marks = reuse_plan(ladder.rung(4).groups, ladder.rung(8).groups)
        # Every coarse stage start coincides with a fine stage start, so 4
        # of 8 target stages reuse GPUs (nested ladder property).
        assert sum(leads for _owner, leads in marks) == 4
        assert len(marks) == 8

    def test_merge_loads_only_complement(self, ladder):
        deltas = _delta(ladder, 8, 4)
        assert all(d["reused"] for d in deltas)  # each keeps its head GPU
        total_params = sum(s.param_bytes for s in ladder.plan(4).stages)
        # Reusing the resident halves means loading roughly half the model.
        load = sum(d["param_delta_bytes"] for d in deltas)
        assert 0.0 < load < 0.75 * total_params

    def test_noop_diff_loads_nothing(self, ladder):
        deltas = _delta(ladder, 8, 8)
        assert all(d["reused"] for d in deltas)
        assert sum(d["param_delta_bytes"] for d in deltas) == pytest.approx(0.0)
        assert sum(d["kv_moved_bytes"] for d in deltas) == pytest.approx(0.0)

    def test_split_load_bytes_cover_unshared_range(self, ladder):
        deltas = _delta(ladder, 2, 4)
        fine_params = sum(s.param_bytes for s in ladder.plan(4).stages)
        load = sum(d["param_delta_bytes"] for d in deltas)
        shared = sum(d["resident_param_bytes"] for d in deltas)
        assert 0 < load < fine_params
        assert shared > 0
        assert load + shared == pytest.approx(fine_params)

    @pytest.mark.parametrize("src,dst", [(2, 32), (32, 2), (4, 16), (16, 4)])
    def test_diff_consistency_across_rungs(self, ladder, src, dst):
        deltas = _delta(ladder, src, dst)
        assert len(deltas) == dst
        for d in deltas:
            assert d["param_delta_bytes"] >= 0.0
        # Load bytes never exceed the whole model.
        total = sum(s.param_bytes for s in ladder.plan(dst).stages)
        assert sum(d["param_delta_bytes"] for d in deltas) <= total + 1e-6


# ----------------------------------------------------------------------
# The executor plans with the rule
# ----------------------------------------------------------------------
def _deploy(ctx, profile, ladder, n_stages):
    plan = ladder.plan(n_stages)
    mems = plan.memory_per_stage(8, profile.spec.kv_bytes_per_request)
    replica = PipelineReplica(
        ctx.sim,
        profile,
        plan,
        ctx.allocator.allocate_stages(profile.spec.name, mems),
        batcher_config=BatcherConfig(max_batch=8, max_wait=0.01),
        on_request_complete=lambda request: None,
    )
    replica.activate()
    return replica


@pytest.fixture(scope="module", params=["LLAMA2-7B", "OPT-66B"])
def model_ladder(request, llama_profile, opt_profile):
    profile = llama_profile if request.param == "LLAMA2-7B" else opt_profile
    return profile, GranularityLadder(profile, stage_counts=COUNTS)


@pytest.mark.parametrize("inplace", [False, True], ids=["chain", "inplace"])
def test_preparation_reuses_exactly_the_marked_stages(model_ladder, inplace):
    """On an uncontended paper cluster, every rung pair in both modes: a
    stage keeps its owner's GPU iff ``reuse_plan`` marks it and the GPU
    can hold what the mode adds there, and each grown reservation grows
    by the target footprint minus the resident parameter bytes."""
    profile, ladder = model_ladder
    graph = profile.graph
    for src, dst in itertools.permutations(ladder.stage_counts, 2):
        sim = Simulator()
        ctx = ServingContext.create(sim, make_paper_cluster(sim), RandomStreams(0))
        replica = _deploy(ctx, profile, ladder, src)
        executor = RefactoringExecutor(
            ctx, profile, ladder, MetricsCollector("test")
        )
        old_rung, new_rung = ladder.rung(src), ladder.rung(dst)
        mems = new_rung.plan.memory_per_stage(
            new_rung.plan.max_batch, profile.spec.kv_bytes_per_request
        )
        # Expected per stage: (keeps its owner's GPU, bytes it grows by).
        expected = []
        for k, (owner, leads) in enumerate(
            reuse_plan(old_rung.groups, new_rung.groups)
        ):
            stage, old_stage = new_rung.plan.stages[k], replica.stages[owner]
            lo = max(stage.start, old_stage.plan.start)
            hi = min(stage.end, old_stage.plan.end)
            resident = graph.param_bytes(lo, hi) if leads and lo < hi else 0.0
            need = max(mems[k] - resident, 0.0) if inplace else mems[k]
            keeps = leads and need <= old_stage.gpu.free_memory + 1e-6
            expected.append((keeps, mems[k] - resident))
        kept = sum(keeps for keeps, _ in expected)
        where = f"{profile.spec.name} {src}->{dst}"
        if inplace and not kept:
            # Nothing can survive in place: the preparation refuses (the
            # executor then falls back to a chain) and leaves no trace.
            with pytest.raises(AllocationError, match="reuses no stage"):
                executor._prepare(replica, dst, inplace)
            assert ctx.allocator.audit_balance() == [], where
            assert len(ctx.allocator.live) == src, where
            continue
        plan = executor._prepare(replica, dst, inplace)
        assert plan.batch == new_rung.plan.max_batch, where  # not degraded
        assert plan.inplace == inplace, where
        assert plan.reused_gpus == kept, where
        assert len(plan.grown) == (kept if inplace else 0), where
        assert len(plan.owned) == len(plan.reservations) - len(plan.grown)
        owners = [owner for owner, _ in reuse_plan(old_rung.groups, new_rung.groups)]
        for k, (reservation, (keeps, growth)) in enumerate(
            zip(plan.reservations, expected)
        ):
            old_stage = replica.stages[owners[k]]
            assert (reservation.gpu is old_stage.gpu) == keeps, (where, k)
            if not keeps:
                assert all(reservation.gpu is not s.gpu for s in replica.stages)
        for reservation, old_bytes, target in plan.grown:
            k = plan.reservations.index(reservation)
            assert reservation is replica.stages[owners[k]].reservation
            assert reservation.nbytes - old_bytes == pytest.approx(expected[k][1])
            assert target == pytest.approx(mems[k])
        executor._rollback(plan.owned, plan.grown)
        assert ctx.allocator.audit_balance() == [], where
        assert len(ctx.allocator.live) == src, where
