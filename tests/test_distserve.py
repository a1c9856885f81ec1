"""Tests for the DistServe prefill/decode disaggregation baseline."""

from __future__ import annotations

import pytest

from repro.baselines.distserve import DistServeSystem
from repro.cluster.cluster import make_small_cluster
from repro.core.context import ServingContext
from repro.models.zoo import LLAMA2_7B
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import Request


def make_request(rid, prompt, output, t=0.0):
    return Request(
        rid=rid,
        model=LLAMA2_7B.name,
        arrival_time=t,
        prompt_tokens=prompt,
        output_tokens=output,
        slo_latency=10.0,
    )


@pytest.fixture
def distserve():
    sim = Simulator()
    streams = RandomStreams(seed=3)
    cluster = make_small_cluster(sim, n_servers=10, gpus_per_server=2)
    ctx = ServingContext.create(sim, cluster, streams)
    system = DistServeSystem(
        ctx, [LLAMA2_7B], initial_replicas=2, n_stages=2, decode_stages=8
    )
    return sim, system


class TestConstruction:
    def test_pools_use_different_granularities(self, distserve):
        __, system = distserve
        prefill_plan = system.plans[LLAMA2_7B.name]
        decode_plan = system.decode_plans[LLAMA2_7B.name]
        assert decode_plan.n_stages > prefill_plan.n_stages

    def test_invalid_fraction_rejected(self, distserve):
        sim, system = distserve
        with pytest.raises(ValueError, match="prefill_fraction"):
            DistServeSystem(system.ctx, [LLAMA2_7B], prefill_fraction=1.0)

    def test_invalid_threshold_rejected(self, distserve):
        sim, system = distserve
        with pytest.raises(ValueError, match="threshold"):
            DistServeSystem(system.ctx, [LLAMA2_7B], phase_ratio_threshold=0.0)


class TestClassification:
    def test_long_prompt_short_output_is_prefill(self, distserve):
        __, system = distserve
        assert system.classify(make_request(1, 2000, 10)) == "prefill"

    def test_chatty_request_is_decode(self, distserve):
        __, system = distserve
        assert system.classify(make_request(2, 500, 200)) == "decode"

    def test_zero_output_does_not_crash(self, distserve):
        __, system = distserve
        assert system.classify(make_request(3, 100, 0)) == "prefill"


class TestServing:
    def test_both_pools_deploy_and_serve(self, distserve):
        sim, system = distserve
        system.start()
        sim.run(until=200.0)  # loads finish
        prefill, decode = system.pool_counts(LLAMA2_7B.name)
        assert prefill >= 1
        assert decode >= 1

    def test_requests_route_by_phase(self, distserve):
        sim, system = distserve
        system.start()
        sim.run(until=200.0)
        now = sim.now
        for i in range(6):
            system.submit(make_request(i, 2000, 5, t=now))  # prefill-heavy
        for i in range(6, 10):
            system.submit(make_request(i, 200, 150, t=now))  # decode-heavy
        assert system.prefill_routed == 6
        assert system.decode_routed == 4

    def test_mixed_workload_completes_everywhere(self, distserve):
        sim, system = distserve
        system.start()
        sim.run(until=200.0)
        requests = [
            make_request(i, 2000 if i % 2 else 200, 5 if i % 2 else 100, t=sim.now)
            for i in range(20)
        ]
        for r in requests:
            system.submit(r)
        sim.run(until=sim.now + 600.0)
        done = sum(1 for r in requests if r.completed)
        assert done == 20

    def test_unknown_model_rejected(self, distserve):
        __, system = distserve
        bad = Request(1, "nope", 0.0, 10, 10, 1.0)
        with pytest.raises(KeyError):
            system.submit(bad)


class TestTeardown:
    def test_released_decode_replicas_leave_their_router(self, distserve):
        """The factory's teardown only knows the prefill routers; decode
        replicas must still be unhooked from their decode router on
        release (no zombie gateway entries)."""
        sim, system = distserve
        system.start()
        sim.run(until=200.0)
        decode_router = system.decode_routers[LLAMA2_7B.name]
        assert decode_router.active_replicas  # decode pool is serving
        for replica in list(decode_router.replicas):
            system.factory.release(replica)
        # Bounded run: the system is still live (periodic samplers tick),
        # so draining must finish within a generous window.
        sim.run(until=sim.now + 300.0)
        assert decode_router.replicas == []

    def test_shutdown_tears_down_both_pools(self, distserve):
        sim, system = distserve
        system.start()
        sim.run(until=200.0)
        system.shutdown()
        sim.run_until_idle()
        assert system.ctx.allocator.live == {}
        assert system.decode_routers[LLAMA2_7B.name].replicas == []
        assert system.routers[LLAMA2_7B.name].replicas == []
