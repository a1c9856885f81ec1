"""Tests for the baseline systems' distinguishing policies."""

from __future__ import annotations


import pytest

from repro.baselines import (
    AlpaServeSystem,
    MuxServeSystem,
    ServerlessLLMSystem,
    StaticPipelineSystem,
    TetrisSystem,
)
from repro.experiments import figures
from repro.experiments.systems import SYSTEMS, build_system
from repro.models.zoo import LLAMA2_7B, OPT_66B
from repro.partitioning.ladder import FULL_LADDER
from repro.refactoring.granularity import GranularityPolicy

STATIC = sorted(
    name
    for name, row in SYSTEMS.items()
    if issubclass(row.system, StaticPipelineSystem)
)


class TestStageCount:
    @pytest.mark.parametrize("name", STATIC)
    @pytest.mark.parametrize("n_stages", [2, 8])
    def test_every_static_system_serves_an_explicit_count(self, ctx, name, n_stages):
        system = SYSTEMS[name].system(ctx, [LLAMA2_7B], n_stages=n_stages)
        assert system.plans[LLAMA2_7B.name].n_stages == n_stages
        system.shutdown()

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_eq4_at_the_setpoint_selects_that_rung_on_opt66b(self, ctx, k):
        """Figs. 3 and 4 ask AlpaServe for k stages with ``n_stages=k``;
        Eq. 4 at the set-point (k/4)^2, the keyword they used before,
        selects the same rung."""
        script = figures.figure_spec("fig4").models[0]
        policy = GranularityPolicy(
            ctx.profile(OPT_66B),
            ctx.ladder(OPT_66B, FULL_LADDER),
            prompt_tokens=script.prompt_median,
            output_tokens=script.output_median,
        )
        assert policy.select((k / 4.0) ** 2) == k


class TestAlpaServe:
    def test_offline_granularity_tracks_historical_cv(self, ctx, monkeypatch):
        calm = AlpaServeSystem(ctx, [LLAMA2_7B])
        monkeypatch.setattr(AlpaServeSystem, "historical_cv", 8.0)
        bursty = AlpaServeSystem(ctx, [LLAMA2_7B])
        k_calm = calm.plans[LLAMA2_7B.name].n_stages
        k_bursty = bursty.plans[LLAMA2_7B.name].n_stages
        assert k_bursty > k_calm
        calm.shutdown()
        bursty.shutdown()

    def test_is_fully_static(self, ctx):
        system = AlpaServeSystem(ctx, [LLAMA2_7B])
        assert system.autoscalers == {}
        system.shutdown()


class TestMuxServe:
    def test_prefers_colocation(self, ctx):
        system = MuxServeSystem(ctx, [LLAMA2_7B])
        assert system.prefer_colocation
        assert system.autoscalers == {}
        system.shutdown()

    def test_scorer_rewards_shared_gpus(self, ctx):
        system = MuxServeSystem(ctx, [LLAMA2_7B])
        scorer = system._scorer(LLAMA2_7B.name)
        shared, empty = ctx.cluster.gpus[0], ctx.cluster.gpus[1]
        shared.reserve("x", 1.0, model="other")
        assert scorer(shared) > scorer(empty)
        system.shutdown()


class TestServerlessLLM:
    def test_reactive_with_fast_loading(self, ctx):
        system = ServerlessLLMSystem(ctx, [LLAMA2_7B])
        assert LLAMA2_7B.name in system.autoscalers
        assert system.factory.loading_speedup == 3.0
        # Whole-pipeline scale-ups pay full distributed-runtime init.
        assert system.factory.startup_overhead == 12.0
        system.shutdown()

    def test_fixed_granularity(self, ctx):
        system = ServerlessLLMSystem(ctx, [OPT_66B], n_stages=4)
        assert system.plans[OPT_66B.name].n_stages == 4
        system.shutdown()


class TestTetris:
    def test_coarsest_feasible_granularity(self, ctx):
        system = TetrisSystem(ctx, [LLAMA2_7B, OPT_66B])
        # LLAMA fits a single GPU; OPT-66B (120 GiB) needs at least two.
        assert system.plans[LLAMA2_7B.name].n_stages == 1
        assert system.plans[OPT_66B.name].n_stages == 2
        system.shutdown()

    def test_modest_batch_and_slow_scaling(self, ctx):
        spec = figures.figure_spec("tetris")
        system = build_system("Tetris", ctx, spec)
        assert spec.batch_cap == 32 and system.factory.batch_cap == 16
        system.shutdown()
        system = TetrisSystem(ctx, [LLAMA2_7B])
        scaler = system.autoscalers[LLAMA2_7B.name]
        assert scaler.config.interval >= 2.0
        assert scaler.config.scale_out_cooldown >= 5.0
        system.shutdown()


class TestSnapBehaviour:
    def test_requested_stage_count_snaps_to_rung(self, ctx):
        system = ServerlessLLMSystem(ctx, [LLAMA2_7B], n_stages=5)
        assert system.plans[LLAMA2_7B.name].n_stages == 8  # next rung up
        system.shutdown()
