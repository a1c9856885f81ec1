"""Shared run environment: the config the systems registry reads, the world
builder and the per-tenant request sampler.

``ScenarioDriver`` builds every run — catalog scenarios, the chaos audit
and the paper-figure cells — from these pieces: a fresh simulator and
fragmented cluster from the seed, then one sampler per tenant.  Seeded
random streams are per-subsystem, so two systems compared under the same
seed observe byte-identical arrival processes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster, make_paper_cluster, make_small_cluster
from repro.cluster.fragmentation import FragmentationModel
from repro.models.zoo import ModelSpec, get_model
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import (
    LengthDistribution,
    RequestSampler,
    rid_namespace,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """What the environment builder and the systems registry read.

    ``ScenarioDriver`` derives one from each ``ScenarioSpec`` (the spec
    owns the workload, the horizon and the warm-up); the registry
    provisions from the primary ``model``'s peak ``qps`` and request shape,
    and every system deploys each tenant in ``specs``.
    """

    model: str = "OPT-66B"
    qps: float = 20.0  # the paper's baseline QPS (§9.1)
    seed: int = 0
    slo_latency: float = 10.0
    prompt_median: int = 128
    output_median: int = 8
    batch_cap: int = 32  # uniform serving batch limit across systems
    cluster: str = "paper"  # "paper" | "small"
    fragmentation: bool = True
    # Co-resident tenants beyond the primary model: the scenario engine
    # deploys a whole fleet through the same registry.
    extra_models: tuple[str, ...] = ()

    @property
    def spec(self) -> ModelSpec:
        return get_model(self.model)

    @property
    def specs(self) -> list[ModelSpec]:
        out = [get_model(self.model)]
        for name in self.extra_models:
            if name != self.model:
                out.append(get_model(name))
        return out


def build_environment(
    cfg: ExperimentConfig,
    *,
    server_indices=None,
) -> tuple[Simulator, Cluster, RandomStreams, FragmentationModel | None]:
    """Build one run's world.  ``server_indices`` (sharded execution)
    restricts the cluster to that subset of the named topology's servers —
    same names, racks and RDMA striping as the full build."""
    sim = Simulator()
    streams = RandomStreams(cfg.seed)
    if server_indices is not None:
        from repro.cluster.cluster import make_cluster_subset

        cluster = make_cluster_subset(sim, cfg.cluster, server_indices)
    elif cfg.cluster == "paper":
        cluster = make_paper_cluster(sim)
    elif cfg.cluster == "small":
        cluster = make_small_cluster(sim)
    else:
        raise ValueError(f"unknown cluster kind {cfg.cluster!r}")
    fragmentation = None
    if cfg.fragmentation:
        fragmentation = FragmentationModel(sim, cluster, streams)
        fragmentation.warm_up()
    return sim, cluster, streams, fragmentation


def make_workload_sampler(
    cfg: ExperimentConfig,
    streams: RandomStreams,
    tag: str,
    slo_class: str | None = None,
) -> RequestSampler:
    """Build one tenant's request sampler.

    ``slo_class`` stamps requests with a QoS class and replaces the
    config's SLO latency with the class's own target, so a classed
    tenant's goodput is judged against the deadline its class promises.
    """
    slo_latency = cfg.slo_latency
    if slo_class is not None:
        from repro.qos.classes import get_slo_class

        slo_latency = get_slo_class(slo_class).latency_target
    return RequestSampler(
        cfg.model,
        streams.stream(f"requests{tag}"),
        prompt=LengthDistribution(median=cfg.prompt_median, sigma=0.6, lo=16, hi=4096),
        output=LengthDistribution(median=cfg.output_median, sigma=0.7, lo=1, hi=256),
        slo_latency=slo_latency,
        # Each tenant's tag mints rids in its own namespace so
        # multi-tenant runs keep ids globally unique.
        rid_base=rid_namespace(tag),
        slo_class=slo_class,
    )
