"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import make_small_cluster
from repro.core.context import ServingContext
from repro.core.deployment import ReplicaFactory
from repro.models.costs import CostModel
from repro.models.transformer import build_transformer
from repro.models.zoo import LLAMA2_7B, OPT_66B
from repro.models.profiler import ModelProfile
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def streams() -> RandomStreams:
    return RandomStreams(seed=42)


@pytest.fixture
def small_cluster(sim):
    return make_small_cluster(sim, n_servers=6, gpus_per_server=2)


@pytest.fixture
def ctx(sim, small_cluster, streams) -> ServingContext:
    return ServingContext.create(sim, small_cluster, streams)


@pytest.fixture(scope="session")
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture(scope="session")
def opt_profile(cost_model) -> ModelProfile:
    return ModelProfile(
        spec=OPT_66B, graph=build_transformer(OPT_66B), cost_model=cost_model
    )


@pytest.fixture(scope="session")
def llama_profile(cost_model) -> ModelProfile:
    return ModelProfile(
        spec=LLAMA2_7B, graph=build_transformer(LLAMA2_7B), cost_model=cost_model
    )


@pytest.fixture(scope="session")
def bare_factory():
    """Builds a factory with no routers from ``(ctx, metrics, **options)``:
    what a lone executor or autoscaler reads its inputs from."""

    def make(ctx, metrics, **options) -> ReplicaFactory:
        return ReplicaFactory(
            ctx,
            routers={},
            metrics=metrics,
            on_request_complete=lambda r: None,
            **options,
        )

    return make
