"""Tests for the FlexPipe core: config, context, deployment, controller."""

from __future__ import annotations

import pytest

from types import SimpleNamespace

from repro.core.config import FlexPipeConfig
from repro.core.context import get_graph
from repro.core.deployment import ReplicaFactory
from repro.core.flexpipe import FlexPipeSystem
from repro.core.serving import ServingSystem
from repro.experiments.systems import SERVERLESS_FRACTION
from repro.metrics.collector import MetricsCollector
from repro.models.zoo import LLAMA2_7B, OPT_66B
from repro.pipeline.replica import ReplicaState
from repro.pipeline.router import ModelRouter
from repro.scaling.warm_cache import HostParamCache
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import RequestSampler


class TestConfig:
    def test_defaults_follow_paper(self):
        cfg = FlexPipeConfig()
        assert cfg.decision_latency < 0.005  # "<5ms" (§6.3)
        assert SERVERLESS_FRACTION == pytest.approx(0.30)  # always-on floor
        assert 4 in cfg.stage_counts and 32 in cfg.stage_counts

    def test_validation(self):
        with pytest.raises(ValueError):
            FlexPipeConfig(alpha_tradeoff=2.0)
        with pytest.raises(ValueError):
            FlexPipeConfig(control_interval=0.0)
        with pytest.raises(ValueError):
            FlexPipeConfig(initial_stages=3)  # not in stage_counts


class TestContextCaches:
    def test_graph_cache_shares_instances(self):
        assert get_graph(LLAMA2_7B) is get_graph(LLAMA2_7B)

    def test_profile_cache_keyed_by_cost_config(self, ctx):
        p1 = ctx.profile(LLAMA2_7B)
        p2 = ctx.profile(LLAMA2_7B)
        assert p1 is p2

    def test_ladder_cache_keyed_by_stage_counts(self, ctx):
        l1 = ctx.ladder(LLAMA2_7B, (2, 4))
        l2 = ctx.ladder(LLAMA2_7B, (2, 4))
        l3 = ctx.ladder(LLAMA2_7B, (2, 4, 8))
        assert l1 is l2
        assert l1 is not l3


def make_factory(ctx, warm_cache=None, **kwargs):
    router = ModelRouter(ctx.sim, LLAMA2_7B.name)
    metrics = MetricsCollector("test")
    factory = ReplicaFactory(
        ctx,
        routers={LLAMA2_7B.name: router},
        metrics=metrics,
        on_request_complete=lambda r: None,
        warm_cache=warm_cache,
        **kwargs,
    )
    return factory, router, metrics


class TestReplicaFactory:
    def test_deploy_loads_then_activates(self, ctx):
        factory, router, metrics = make_factory(ctx, startup_overhead=1.0)
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        replica = factory.deploy(ctx.profile(LLAMA2_7B), plan)
        assert replica.state is ReplicaState.LOADING
        ctx.sim.run_until_idle()
        assert replica.state is ReplicaState.ACTIVE
        assert router.active_replicas == [replica]
        event = metrics.events[-1]
        assert event.kind == "scale_out"
        # Init time covers load + the serverless startup overhead.
        assert event.init_time > 1.0

    def test_warm_cache_populated_on_load(self, ctx):
        cache = HostParamCache()
        factory, _, _ = make_factory(ctx, warm_cache=cache)
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        replica = factory.deploy(ctx.profile(LLAMA2_7B), plan)
        ctx.sim.run_until_idle()
        total_cached = sum(
            cache.server_bytes(s) for s in ctx.cluster.servers
        )
        assert total_cached == pytest.approx(plan.stages[0].param_bytes + plan.stages[1].param_bytes)

    def test_second_deploy_on_warm_servers_is_faster(self, ctx):
        cache = HostParamCache()
        factory, _, metrics = make_factory(ctx, warm_cache=cache, startup_overhead=1.0)
        profile = ctx.profile(LLAMA2_7B)
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        first = factory.deploy(profile, plan)
        ctx.sim.run_until_idle()
        cold_init = metrics.events[-1].init_time
        factory.release(first)
        ctx.sim.run_until_idle()
        second = factory.deploy(profile, plan)
        ctx.sim.run_until_idle()
        warm_event = metrics.events[-1]
        assert warm_event.warm
        assert warm_event.init_time < cold_init / 2

    def test_batch_degradation_under_memory_pressure(self, ctx):
        """A fragmented cluster shrinks the KV pool instead of failing."""
        for gpu in ctx.cluster.gpus:
            gpu.background_mem = 55 * 1024**3
        factory, _, _ = make_factory(ctx, batch_cap=512)
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        replica = factory.deploy(ctx.profile(LLAMA2_7B), plan)
        assert replica.batcher.config.max_batch < 512

    def test_release_returns_memory(self, ctx):
        factory, router, _ = make_factory(ctx)
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        replica = factory.deploy(ctx.profile(LLAMA2_7B), plan)
        ctx.sim.run_until_idle()
        held = ctx.allocator.total_reserved()
        factory.release(replica)
        ctx.sim.run_until_idle()
        assert ctx.allocator.total_reserved() < held
        assert factory.released == 1

    def test_loading_speedup_shortens_init(self, ctx):
        fast_factory, _, fast_metrics = make_factory(
            ctx, loading_speedup=4.0, startup_overhead=0.0
        )
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        fast_factory.deploy(ctx.profile(LLAMA2_7B), plan)
        ctx.sim.run_until_idle()
        fast_init = fast_metrics.events[-1].init_time

        slow_factory, _, slow_metrics = make_factory(
            ctx, loading_speedup=1.0, startup_overhead=0.0
        )
        slow_factory.deploy(ctx.profile(LLAMA2_7B), plan)
        ctx.sim.run_until_idle()
        assert slow_metrics.events[-1].init_time > fast_init


class TestFlexPipeSystem:
    def test_construction_and_introspection(self, ctx):
        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
        assert system.current_granularity(LLAMA2_7B.name) == 4
        assert system.refactor_counts() == {LLAMA2_7B.name: 0}
        system.shutdown()

    def test_start_deploys_initial_replicas(self, ctx):
        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=2)
        system.start()
        ctx.sim.run(until=60.0)
        assert len(system.routers[LLAMA2_7B.name].active_replicas) == 2
        system.shutdown()

    def test_submit_requires_known_model(self, ctx):
        system = FlexPipeSystem(ctx, [LLAMA2_7B])
        sampler = RequestSampler("OPT-66B", RandomStreams(0).stream("r"))
        with pytest.raises(KeyError):
            system.submit(sampler.sample(0.0))
        system.shutdown()

    def test_reset_measurement_epoch_zeroes_counters(self, ctx):
        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
        system.start()
        ctx.sim.run(until=60.0)
        for gpu in ctx.cluster.gpus:
            gpu.busy_seconds = 123.0
        system.reset_measurement_epoch()
        assert all(g.busy_seconds == 0.0 for g in ctx.cluster.gpus)
        system.shutdown()

    def test_ablation_flags_wire_through(self, ctx):
        system = FlexPipeSystem(
            ctx,
            [LLAMA2_7B],
            enable_refactoring=False,
            enable_warm_cache=False,
            enable_hrg=False,
            enable_affinity=False,
        )
        assert system.warm_cache is None
        assert not system.enable_refactoring
        assert not system.coordinator.use_hrg
        assert not system.coordinator.use_affinity
        system.shutdown()

    def test_factory_owns_the_batch_cap(self, ctx):
        """The autoscaler and the refactoring executor read the cap from
        the factory, so changing it there changes it everywhere."""
        system = FlexPipeSystem(ctx, [LLAMA2_7B], batch_cap=32)
        state = system._models[LLAMA2_7B.name]
        system.factory.batch_cap = 8
        assert state.autoscaler.batch_cap == state.executor.batch_cap == 8
        system.shutdown()

    def test_initial_stages_snap_to_feasible_rung(self, ctx):
        # OPT-66B has no 1-stage rung; requesting coarse snaps to a legal one.
        config = FlexPipeConfig(stage_counts=(2, 4, 8), initial_stages=2)
        system = FlexPipeSystem(ctx, [OPT_66B], config=config)
        assert system.current_granularity(OPT_66B.name) in (2, 4, 8)
        system.shutdown()


class TestMeasurementEpoch:
    """_epoch_start is initialised at construction, not lazily on reset."""

    class _Dummy(ServingSystem):
        name = "dummy"

        def start(self) -> None:
            pass

    def test_summary_without_epoch_reset(self, ctx):
        system = self._Dummy(ctx, [LLAMA2_7B])
        assert system._epoch_start == ctx.sim.now
        ctx.sim.run(until=5.0)
        summary = system.summarize(5.0)  # no reset_measurement_epoch taken
        assert summary.offered == 0
        system.shutdown()

    def test_epoch_start_counts_from_construction_time(self, ctx):
        system = self._Dummy(ctx, [LLAMA2_7B])
        system.metrics.on_submit(SimpleNamespace(arrival_time=1.0))
        ctx.sim.run(until=2.0)
        assert system.summarize(2.0).offered == 1
        system.shutdown()

    def test_reset_moves_the_measured_window(self, ctx):
        system = self._Dummy(ctx, [LLAMA2_7B])
        system.metrics.on_submit(SimpleNamespace(arrival_time=1.0))
        ctx.sim.run(until=5.0)
        system.reset_measurement_epoch()
        assert system._epoch_start == 5.0
        system.metrics.on_submit(SimpleNamespace(arrival_time=6.0))
        ctx.sim.run(until=8.0)
        summary = system.summarize(3.0)
        assert summary.offered == 1  # only the post-reset arrival counts
        system.shutdown()
