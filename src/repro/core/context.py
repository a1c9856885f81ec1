"""Shared per-run context: simulator, cluster, profiles, caches.

Model graphs, profiles and granularity ladders are immutable and costly to
build (the Eq. 2 DP over ~450 operators), so they are cached at module
level keyed by (``ModelSpec.shape``, cost-config, stage set) and shared
across runs and same-shape tenants.  An entry built for one tenant is
bound to another's name by ``ModelProfile.bind``/``GranularityLadder.bind``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.allocator import GPUAllocator
from repro.cluster.cluster import Cluster
from repro.cluster.hrg import HierarchicalResourceGraph
from repro.models.costs import CostModel, CostModelConfig
from repro.models.graph import ComputationGraph
from repro.models.profiler import ModelProfile
from repro.models.transformer import build_transformer
from repro.models.zoo import ModelSpec
from repro.partitioning.ladder import GranularityLadder
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.transfer.datamover import DataMover

_GRAPH_CACHE: dict[tuple, ComputationGraph] = {}
_PROFILE_CACHE: dict[tuple, ModelProfile] = {}
_LADDER_CACHE: dict[tuple, GranularityLadder] = {}


def get_graph(spec: ModelSpec) -> ComputationGraph:
    graph = _GRAPH_CACHE.get(spec.shape)
    if graph is None:
        graph = build_transformer(spec)
        _GRAPH_CACHE[spec.shape] = graph
    return graph


def get_profile(spec: ModelSpec, cost_model: CostModel) -> ModelProfile:
    key = (spec.shape, cost_model.config)
    profile = _PROFILE_CACHE.get(key)
    if profile is None:
        profile = ModelProfile(
            spec=spec, graph=get_graph(spec), cost_model=cost_model
        )
        _PROFILE_CACHE[key] = profile
    return profile if profile.spec == spec else profile.bind(spec)


def get_ladder(
    spec: ModelSpec, cost_model: CostModel, stage_counts: tuple[int, ...]
) -> GranularityLadder:
    key = (spec.shape, cost_model.config, tuple(stage_counts))
    ladder = _LADDER_CACHE.get(key)
    if ladder is None:
        ladder = GranularityLadder(
            get_profile(spec, cost_model), stage_counts=stage_counts
        )
        _LADDER_CACHE[key] = ladder
    if ladder.profile.spec != spec:
        ladder = ladder.bind(get_profile(spec, cost_model))
    return ladder


@dataclass
class ServingContext:
    """Everything a serving system needs from its environment."""

    sim: Simulator
    cluster: Cluster
    streams: RandomStreams
    cost_model: CostModel
    allocator: GPUAllocator
    hrg: HierarchicalResourceGraph
    data_mover: DataMover

    @classmethod
    def create(
        cls,
        sim: Simulator,
        cluster: Cluster,
        streams: RandomStreams,
        *,
        cost_config: CostModelConfig | None = None,
    ) -> "ServingContext":
        cost_model = CostModel(cost_config)
        return cls(
            sim=sim,
            cluster=cluster,
            streams=streams,
            cost_model=cost_model,
            allocator=GPUAllocator(cluster),
            hrg=HierarchicalResourceGraph(cluster),
            data_mover=DataMover(),
        )

    # ------------------------------------------------------------------
    def profile(self, spec: ModelSpec) -> ModelProfile:
        return get_profile(spec, self.cost_model)

    def ladder(
        self, spec: ModelSpec, stage_counts: tuple[int, ...] = (2, 4, 8, 16, 32)
    ) -> GranularityLadder:
        return get_ladder(spec, self.cost_model, stage_counts)
