"""Cross-module integration: new subsystems driving the live serving stack.

Each test wires several of the later-added components (trace replay,
admission control) through the same public API an application would use,
catching interface drift that unit tests cannot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import make_small_cluster
from repro.core.admission import AdmissionGate, SLOFeasiblePolicy
from repro.core.context import ServingContext
from repro.core.flexpipe import FlexPipeSystem
from repro.models.zoo import LLAMA2_7B
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workloads.arrivals import ReplayArrivals
from repro.workloads.azure2019 import iter_minted_stamps
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.requests import RequestSampler


@pytest.fixture
def serving():
    sim = Simulator()
    streams = RandomStreams(seed=21)
    cluster = make_small_cluster(sim, n_servers=8, gpus_per_server=2)
    ctx = ServingContext.create(sim, cluster, streams)
    system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=2)
    system.start()
    sim.run(until=150.0)
    return sim, streams, system


class TestTraceReplayThroughSystem:
    def test_replayed_trace_is_fully_served(self, serving):
        sim, streams, system = serving
        counts = np.full(4, 30, dtype=np.int64)  # 0.5 req/s over 4 minutes
        arrivals = ReplayArrivals(
            iter_minted_stamps(counts), streams.stream("replay")
        )
        generator = WorkloadGenerator(
            sim,
            arrivals,
            RequestSampler(LLAMA2_7B.name, streams.stream("req")),
            system.submit,
            duration=240.0,
        )
        sim.run(until=sim.now + 400.0)
        system.shutdown()
        assert generator.offered == int(counts.sum())
        assert all(r.completed for r in generator.requests)


class TestAdmissionInFrontOfSystem:
    def test_gate_composes_with_submit(self, serving):
        sim, streams, system = serving
        router = system.routers[LLAMA2_7B.name]
        policy = SLOFeasiblePolicy(
            lambda: router.waiting_count,
            lambda: 20.0,
            lambda r: 0.5,
        )
        gate = AdmissionGate(system.submit, policy)
        generator = WorkloadGenerator(
            sim,
            ReplayArrivals(
                iter_minted_stamps(np.array([120])), streams.stream("replay")
            ),
            RequestSampler(LLAMA2_7B.name, streams.stream("req")),
            gate.submit,
            duration=60.0,
        )
        sim.run(until=sim.now + 200.0)
        system.shutdown()
        assert gate.stats.offered == 120
        assert gate.stats.admitted == system.metrics.offered
        admitted = [r for r in generator.requests if not r.rejected]
        assert all(r.completed for r in admitted)
