"""Cluster assembly and reference topologies.

``make_paper_cluster`` reproduces the paper's testbed scale: 42 servers and
82 GPUs (10 single-GPU, 28 dual-GPU, 4 quad-GPU nodes — the mix that yields
the paper's observation that 4 co-located GPUs are almost never available).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.gpu import GPU, GPUSpec
from repro.cluster.server import Server
from repro.cluster.topology import Rack
from repro.simulation.engine import Simulator
from repro.transfer.links import GB, FairShareLink, LinkSpec

DEFAULT_STORAGE_BANDWIDTH = 32.0 * GB


class Cluster:
    """The full simulated cluster: racks -> servers -> GPUs + shared storage."""

    def __init__(
        self,
        sim: Simulator,
        racks: list[Rack],
        *,
        storage_bandwidth: float = DEFAULT_STORAGE_BANDWIDTH,
    ):
        if not racks:
            raise ValueError("cluster needs at least one rack")
        self.sim = sim
        self.racks = racks
        # Shared model-checkpoint storage (cluster I/O tier of the HRG).
        self.storage = FairShareLink(
            sim, LinkSpec("cluster/storage", storage_bandwidth, 1e-3)
        )
        self._servers = {s.sid: s for rack in racks for s in rack.servers}
        self._gpus = {g.gid: g for rack in racks for g in rack.gpus}
        self._racks = {rack.rid: rack for rack in racks}
        # Monotone count of capacity-adding changes (see repro.cluster.gpu).
        self.capacity_epoch = 0
        for gpu in self._gpus.values():
            gpu.cluster = self

    @property
    def servers(self) -> list[Server]:
        return list(self._servers.values())

    @property
    def gpus(self) -> list[GPU]:
        return list(self._gpus.values())

    def server(self, sid: str) -> Server:
        return self._servers[sid]

    def gpu(self, gid: str) -> GPU:
        return self._gpus[gid]

    def rack_of(self, server: Server) -> Rack:
        return self._racks[server.rack_id]

    @property
    def gpu_count(self) -> int:
        return len(self._gpus)

    # ------------------------------------------------------------------
    # Fragmentation statistics (§3.1 / Table 1 / Fig. 2)
    # ------------------------------------------------------------------
    def subscription_rate(self) -> float:
        """Mean GPU SM subscription across the cluster (can exceed 1.0)."""
        gpus = self.gpus
        return sum(g.background_sm_request for g in gpus) / len(gpus)

    def free_gpu_probability(self, min_free_fraction: float = 0.85) -> float:
        """Fraction of GPUs with at least ``min_free_fraction`` memory free."""
        gpus = self.gpus
        free = sum(1 for g in gpus if g.free_fraction >= min_free_fraction)
        return free / len(gpus)

    def colocated_probability(self, count: int, min_free_fraction: float = 0.85) -> float:
        """Fraction of servers offering ``count`` co-located free GPUs."""
        servers = self.servers
        hits = sum(
            1
            for s in servers
            if sum(1 for g in s.gpus if g.free_fraction >= min_free_fraction) >= count
        )
        return hits / len(servers)

    def mean_serving_utilization(self, elapsed: float) -> float:
        """Average serving-side SM utilization over ``elapsed`` seconds."""
        gpus = self.gpus
        return sum(g.utilization(elapsed) for g in gpus) / len(gpus)


@dataclass(frozen=True)
class ServerPlacement:
    """Where one server of a reference topology sits (pure layout data).

    Shard partitioners consume placements to carve server-affine
    sub-clusters whose names, rack assignment and RDMA striping are
    *identical* to the full topology's — ``server-7`` in a shard is the
    same machine as ``server-7`` in the monolithic cluster.
    """

    index: int
    n_gpus: int
    rack: int
    rdma: bool
    gpu_start: int  # global index of the server's first GPU


# (layout, rdma_fraction, n_racks) for each named reference topology.
_KIND_PARAMS: dict[str, tuple[list[int], float, int]] = {
    "paper": ([1] * 10 + [2] * 28 + [4] * 4, 0.5, 6),  # 42 servers, 82 GPUs
    "small": ([2] * 8, 0.5, 2),
}


def _placements(
    layout: list[int], rdma_fraction: float, n_racks: int
) -> list[ServerPlacement]:
    out = []
    gpu_index = 0
    for i, n_gpus in enumerate(layout):
        # Deterministic striping of RDMA-capable servers across the fleet.
        rdma = (i * rdma_fraction) % 1.0 + rdma_fraction >= 1.0 if rdma_fraction > 0 else False
        out.append(ServerPlacement(i, n_gpus, i % n_racks, rdma, gpu_index))
        gpu_index += n_gpus
    return out


def server_placements(kind: str) -> list[ServerPlacement]:
    """The full placement list of a named reference topology."""
    if kind not in _KIND_PARAMS:
        raise ValueError(
            f"unknown cluster kind {kind!r}; available: {sorted(_KIND_PARAMS)}"
        )
    layout, rdma_fraction, n_racks = _KIND_PARAMS[kind]
    return _placements(layout, rdma_fraction, n_racks)


def make_paper_cluster(
    sim: Simulator,
    *,
    gpu_spec: GPUSpec | None = None,
    rdma_fraction: float = 0.5,
    n_racks: int = 6,
) -> Cluster:
    """Build the 42-server / 82-GPU topology of the paper's evaluation."""
    layout = [1] * 10 + [2] * 28 + [4] * 4  # 42 servers, 82 GPUs
    return _build(sim, layout, gpu_spec, rdma_fraction, n_racks)


def make_small_cluster(
    sim: Simulator,
    *,
    n_servers: int = 8,
    gpus_per_server: int = 2,
    gpu_spec: GPUSpec | None = None,
    rdma_fraction: float = 0.5,
    n_racks: int = 2,
) -> Cluster:
    """A small topology for unit tests and quick examples."""
    layout = [gpus_per_server] * n_servers
    return _build(sim, layout, gpu_spec, rdma_fraction, n_racks)


def make_cluster_subset(
    sim: Simulator,
    kind: str,
    server_indices,
    *,
    gpu_spec: GPUSpec | None = None,
) -> Cluster:
    """Build the sub-cluster of a named topology owning ``server_indices``.

    Server names, GPU names, rack membership and RDMA capability all match
    the full topology (racks with no chosen server are simply absent).
    The checkpoint-storage tier is shared fleet-wide in the monolithic
    cluster, so a shard gets its proportional (by GPU count) slice of the
    storage bandwidth — sharding must not mint aggregate I/O capacity.
    """
    placements = server_placements(kind)
    chosen = sorted(set(int(i) for i in server_indices))
    if not chosen:
        raise ValueError("server_indices must not be empty")
    if chosen[0] < 0 or chosen[-1] >= len(placements):
        raise ValueError(
            f"server indices {chosen} out of range for {kind!r} "
            f"({len(placements)} servers)"
        )
    spec = gpu_spec or GPUSpec()
    total_gpus = sum(p.n_gpus for p in placements)
    racks: dict[int, Rack] = {}
    sub_gpus = 0
    for i in chosen:
        placement = placements[i]
        gpus = [
            GPU(f"gpu-{placement.gpu_start + j}", spec)
            for j in range(placement.n_gpus)
        ]
        sub_gpus += placement.n_gpus
        server = Server(sim, f"server-{i}", gpus, rdma=placement.rdma)
        rack = racks.setdefault(
            placement.rack, Rack(sim, f"rack-{placement.rack}")
        )
        rack.add_server(server)
    storage = DEFAULT_STORAGE_BANDWIDTH * sub_gpus / total_gpus
    return Cluster(
        sim,
        [racks[r] for r in sorted(racks)],
        storage_bandwidth=storage,
    )


def _build(
    sim: Simulator,
    layout: list[int],
    gpu_spec: GPUSpec | None,
    rdma_fraction: float,
    n_racks: int,
) -> Cluster:
    spec = gpu_spec or GPUSpec()
    racks = [Rack(sim, f"rack-{r}") for r in range(n_racks)]
    for placement in _placements(layout, rdma_fraction, n_racks):
        gpus = [
            GPU(f"gpu-{placement.gpu_start + j}", spec)
            for j in range(placement.n_gpus)
        ]
        server = Server(
            sim, f"server-{placement.index}", gpus, rdma=placement.rdma
        )
        racks[placement.rack].add_server(server)
    return Cluster(sim, racks)
