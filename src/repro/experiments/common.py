"""Shared run environment: the world builder and the per-tenant request
sampler.

``ScenarioDriver`` builds every run — catalog scenarios, the chaos audit
and the paper-figure cells — from these pieces: a fresh simulator and
fragmented cluster from the seed, then one sampler per tenant.  Seeded
random streams are per-subsystem, so two systems compared under the same
seed observe byte-identical arrival processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import Cluster, make_paper_cluster, make_small_cluster
from repro.cluster.fragmentation import FragmentationModel
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import (
    LengthDistribution,
    RequestSampler,
    rid_namespace,
)

if TYPE_CHECKING:
    from repro.scenarios.spec import ModelScript


def build_environment(
    seed: int,
    cluster: str = "paper",
    fragmentation: bool = True,
    *,
    server_indices=None,
) -> tuple[Simulator, Cluster, RandomStreams, FragmentationModel | None]:
    """Build one run's world: the named ``cluster`` ("paper" | "small"),
    warmed by background fragmentation churn unless ``fragmentation`` is
    off.  ``server_indices`` (sharded execution) restricts the cluster to
    that subset of the named topology's servers — same names, racks and
    RDMA striping as the full build."""
    sim = Simulator()
    streams = RandomStreams(seed)
    if server_indices is not None:
        from repro.cluster.cluster import make_cluster_subset

        world = make_cluster_subset(sim, cluster, server_indices)
    elif cluster == "paper":
        world = make_paper_cluster(sim)
    elif cluster == "small":
        world = make_small_cluster(sim)
    else:
        raise ValueError(f"unknown cluster kind {cluster!r}")
    churn = None
    if fragmentation:
        churn = FragmentationModel(sim, world, streams)
        churn.warm_up()
    return sim, world, streams, churn


def make_workload_sampler(
    script: ModelScript,
    streams: RandomStreams,
    tag: str,
    slo_class: str | None = None,
) -> RequestSampler:
    """Build one tenant's request sampler.

    Requests are judged against the tenant's goodput deadline; a
    ``slo_class`` (a segment's override of the tenant's class) stamps them
    with that class and judges them against its own latency target.
    """
    slo_latency = script.effective_slo
    if slo_class is not None:
        from repro.qos.classes import get_slo_class

        slo_latency = get_slo_class(slo_class).latency_target
    return RequestSampler(
        script.model,
        streams.stream(f"requests{tag}"),
        prompt=LengthDistribution(
            median=script.prompt_median, sigma=0.6, lo=16, hi=4096
        ),
        output=LengthDistribution(
            median=script.output_median, sigma=0.7, lo=1, hi=256
        ),
        slo_latency=slo_latency,
        # Each tenant's tag mints rids in its own namespace so
        # multi-tenant runs keep ids globally unique.
        rid_base=rid_namespace(tag),
        slo_class=slo_class,
    )
