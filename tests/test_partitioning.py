"""Tests for the Eq. 2 partitioner, granularity ladder, and Eq. 3 scaling."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.gpu import GPU_MEMORY
from repro.models.costs import CostModel
from repro.models.graph import ComputationGraph
from repro.models.profiler import ModelProfile
from repro.models.transformer import build_transformer
from repro.models.zoo import BERT_21B, LLAMA2_7B, OPT_66B, WHISPER_9B
from repro.partitioning.batch_scaling import activation_bytes, fit_alpha
from repro.partitioning import partitioner as partitioner_module
from repro.partitioning.ladder import GranularityLadder
from repro.partitioning.partitioner import (
    InfeasiblePartition,
    Partitioner,
)
from repro.partitioning.plan import PartitionPlan
from repro.transfer.links import GB


# ----------------------------------------------------------------------
# Test oracles: the structural invariants of a plan and a ladder (§6.1)
# ----------------------------------------------------------------------
def validate_plan(
    plan: PartitionPlan, graph: ComputationGraph, gpu_memory: float
) -> None:
    """Raise ``AssertionError`` if a plan violates any structural invariant."""
    stages = plan.stages
    assert stages, "plan has no stages"
    assert stages[0].start == 0, "first stage must start at operator 0"
    assert stages[-1].end == len(graph), "last stage must end at the last operator"
    for a, b in zip(stages, stages[1:]):
        assert a.end == b.start, f"gap/overlap between stages {a.index} and {b.index}"
    for stage in stages:
        assert stage.start < stage.end, f"empty stage {stage.index}"
        assert (
            stage.param_bytes <= gpu_memory + 1e-6
        ), f"stage {stage.index} exceeds GPU memory"
        if stage.end < len(graph):
            cut_op = graph.operators[stage.end - 1]
            assert cut_op.cuttable_after, (
                f"stage {stage.index} cuts after un-cuttable operator "
                f"{cut_op.name!r}"
            )
    total = sum(s.param_bytes for s in stages)
    assert abs(total - graph.total_param_bytes) < 1e-3, "parameter bytes not conserved"


def validate_ladder(ladder) -> None:
    """Check the nesting property: coarse cuts ⊆ fine cuts."""
    fine_cuts = set(ladder.fine_plan.cuts)
    for count in ladder.stage_counts:
        rung = ladder.rung(count)
        for cut in rung.plan.cuts:
            assert cut in fine_cuts, (
                f"{count}-stage rung cut at op {cut} is not a fine-plan cut; "
                "ladder is not nested"
            )
        # Groups must tile the fine stages exactly.
        tiles = [g for g in rung.groups]
        assert tiles[0][0] == 0
        assert tiles[-1][1] == ladder.fine_plan.n_stages
        for (a, b), (c, d) in zip(tiles, tiles[1:]):
            assert b == c, "fine-stage groups must tile contiguously"
            assert a < b and c < d, "empty fine-stage group"


@pytest.fixture(scope="module")
def llama_partitioner(llama_profile):
    return Partitioner(llama_profile)


class TestPartitioner:
    @pytest.mark.parametrize("n_stages", [1, 2, 3, 4, 8, 16])
    def test_plans_satisfy_structural_invariants(self, llama_profile, llama_partitioner, n_stages):
        plan = llama_partitioner.plan(n_stages)
        validate_plan(plan, llama_profile.graph, GPU_MEMORY)
        assert plan.n_stages == n_stages

    def test_single_stage_infeasible_for_large_model(self, opt_profile):
        partitioner = Partitioner(opt_profile)
        with pytest.raises(InfeasiblePartition):
            partitioner.plan(1)  # 120 GiB cannot fit one 80 GiB GPU

    def test_two_stages_feasible_for_opt(self, opt_profile):
        plan = Partitioner(opt_profile).plan(2)
        assert max(s.param_bytes for s in plan.stages) <= 80 * GB

    def test_stages_are_balanced(self, llama_partitioner):
        plan = llama_partitioner.plan(8)
        sizes = [s.param_bytes for s in plan.stages]
        assert max(sizes) <= 2.0 * (sum(sizes) / len(sizes))

    def test_too_many_stages_rejected(self, llama_profile):
        partitioner = Partitioner(llama_profile)
        with pytest.raises((InfeasiblePartition, ValueError)):
            partitioner.plan(10_000)

    def test_zero_stages_rejected(self, llama_partitioner):
        with pytest.raises(ValueError):
            llama_partitioner.plan(0)

    def test_boundary_quality_preferred(self, llama_profile):
        """With the regulariser active, most cuts land on layer boundaries."""
        plan = Partitioner(llama_profile).plan(8)
        qualities = [llama_profile.graph.boundary_quality(c - 1) for c in plan.cuts]
        assert sum(1 for q in qualities if q >= 0.5) == len(qualities)

    def test_memory_constraint_tighter_config(self, llama_profile, monkeypatch):
        monkeypatch.setattr(partitioner_module, "GPU_MEMORY", 2 * GB)
        plan = Partitioner(llama_profile).plan(8)
        assert max(s.param_bytes for s in plan.stages) <= 2 * GB

    def test_plan_max_batch_is_min_over_stages(self, llama_partitioner):
        plan = llama_partitioner.plan(4)
        assert plan.max_batch == min(s.max_batch for s in plan.stages)

    def test_memory_per_stage_includes_kv(self, llama_profile, llama_partitioner):
        plan = llama_partitioner.plan(4)
        with_kv = plan.memory_per_stage(64, llama_profile.spec.kv_bytes_per_request)
        without = plan.memory_per_stage(64, 0.0)
        assert all(a >= b for a, b in zip(with_kv, without))
        assert sum(without) == pytest.approx(llama_profile.graph.total_param_bytes)


class TestLadder:
    @pytest.mark.parametrize("spec", [OPT_66B, LLAMA2_7B, BERT_21B, WHISPER_9B])
    def test_ladders_are_nested_for_all_models(self, spec):
        profile = ModelProfile(spec=spec, graph=build_transformer(spec), cost_model=CostModel())
        ladder = GranularityLadder(profile)
        validate_ladder(ladder)
        for count in ladder.stage_counts:
            validate_plan(ladder.plan(count), profile.graph, GPU_MEMORY)

    def test_opt_excludes_infeasible_single_stage(self, opt_profile):
        ladder = GranularityLadder(opt_profile, stage_counts=(1, 2, 4, 8, 16, 32))
        assert 1 not in ladder.stage_counts
        assert 2 in ladder.stage_counts

    def test_llama_includes_single_stage(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(1, 2, 4))
        assert ladder.coarsest == 1

    def test_unknown_rung_raises_with_options(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        with pytest.raises(KeyError, match="available"):
            ladder.rung(5)

    def test_groups_tile_fine_stages(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4, 8, 16))
        for count in ladder.stage_counts:
            groups = ladder.rung(count).groups
            covered = []
            for lo, hi in groups:
                covered.extend(range(lo, hi))
            assert covered == list(range(ladder.fine_plan.n_stages))

    def test_coarse_plans_have_fewer_cuts(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4, 8))
        assert set(ladder.plan(2).cuts) <= set(ladder.plan(8).cuts) | {ladder.plan(2).cuts[-1] if ladder.plan(2).cuts else 0} or set(ladder.plan(2).cuts) <= set(ladder.fine_plan.cuts)

    def test_finest_rung_is_the_fine_plan(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4, 8))
        assert ladder.rung(ladder.finest).plan is ladder.fine_plan


class TestBatchScaling:
    def test_eq3_at_base_batch_is_identity(self):
        assert activation_bytes(1000.0, 128) == pytest.approx(1000.0)

    def test_eq3_grows_logarithmically(self):
        grown = activation_bytes(1000.0, 1024)
        assert 1000.0 < grown < 8 * 1000.0  # far below linear scaling

    def test_eq3_floor_for_tiny_batches(self):
        assert activation_bytes(1000.0, 1) >= 0.25 * 1000.0

    def test_eq3_rejects_invalid_inputs(self):
        with pytest.raises(ValueError):
            activation_bytes(-1.0, 4)
        with pytest.raises(ValueError):
            activation_bytes(1.0, 0)

    def test_fit_alpha_recovers_known_coefficient(self):
        import math

        alpha_true = 0.2
        batches = [16, 32, 64, 128, 256, 512, 1024]
        observed = [1000.0 * (1 + alpha_true * math.log(b / 128)) for b in batches]
        fitted = fit_alpha(batches, observed)
        assert fitted == pytest.approx(alpha_true, rel=0.05)

    def test_fit_alpha_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_alpha([128], [1000.0])

    def test_fit_alpha_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_alpha([1, 2], [1.0])


class TestPartitionProperties:
    """Property-based invariants over the partition search space."""

    @given(n_stages=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_any_feasible_stage_count_partitions_exactly(self, n_stages):
        profile = _LLAMA_PROFILE
        plan = Partitioner(profile).plan(n_stages)
        validate_plan(plan, profile.graph, GPU_MEMORY)

    @given(
        batch=st.integers(min_value=1, max_value=2048),
        base=st.floats(min_value=1.0, max_value=1e9),
    )
    @settings(max_examples=50, deadline=None)
    def test_eq3_always_positive_and_bounded(self, batch, base):
        value = activation_bytes(base, batch)
        assert 0 < value <= base * (1 + 0.18 * 11)  # ln(2048/128) < 2.8


_LLAMA_PROFILE = ModelProfile(
    spec=LLAMA2_7B, graph=build_transformer(LLAMA2_7B), cost_model=CostModel()
)
