"""Cluster assembly and reference topologies.

``make_paper_cluster`` reproduces the paper's testbed scale: 42 servers and
82 GPUs (10 single-GPU, 28 dual-GPU, 4 quad-GPU nodes — the mix that yields
the paper's observation that 4 co-located GPUs are almost never available).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.gpu import GPU
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
        # model -> GPUs with a stage of it resident, kept by GPU.reserve and
        # GPU.release, so whether a tenant hosts any stage is one read.
        self.hosting_gpus: dict[str, int] = {}
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


# Share of servers with an RDMA-capable NIC, striped across the fleet.
RDMA_FRACTION = 0.5
# (layout, n_racks) for each named reference topology.
_KINDS: dict[str, tuple[list[int], int]] = {
    "paper": ([1] * 10 + [2] * 28 + [4] * 4, 6),  # 42 servers, 82 GPUs
    "small": ([2] * 8, 2),
}


def _placements(layout: list[int], n_racks: int) -> list[ServerPlacement]:
    out = []
    gpu_index = 0
    for i, n_gpus in enumerate(layout):
        # Deterministic striping of RDMA-capable servers across the fleet.
        rdma = (i * RDMA_FRACTION) % 1.0 + RDMA_FRACTION >= 1.0
        out.append(ServerPlacement(i, n_gpus, i % n_racks, rdma, gpu_index))
        gpu_index += n_gpus
    return out


def server_placements(kind: str) -> list[ServerPlacement]:
    """The full placement list of a named reference topology."""
    if kind not in _KINDS:
        raise ValueError(
            f"unknown cluster kind {kind!r}; available: {sorted(_KINDS)}"
        )
    return _placements(*_KINDS[kind])


def make_paper_cluster(sim: Simulator) -> Cluster:
    """Build the 42-server / 82-GPU topology of the paper's evaluation."""
    return _build(sim, *_KINDS["paper"])


def make_small_cluster(
    sim: Simulator, *, n_servers: int = 8, gpus_per_server: int = 2
) -> Cluster:
    """A small topology for unit tests and quick examples."""
    _, n_racks = _KINDS["small"]
    return _build(sim, [gpus_per_server] * n_servers, n_racks)


def make_cluster_subset(sim: Simulator, kind: str, server_indices) -> Cluster:
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
    total_gpus = sum(p.n_gpus for p in placements)
    racks: dict[int, Rack] = {}
    sub_gpus = 0
    for i in chosen:
        placement = placements[i]
        gpus = [GPU(f"gpu-{placement.gpu_start + j}") for j in range(placement.n_gpus)]
        sub_gpus += placement.n_gpus
        server = Server(sim, f"server-{i}", gpus, rdma=placement.rdma)
        if placement.rack not in racks:
            racks[placement.rack] = Rack(sim, f"rack-{placement.rack}")
        racks[placement.rack].add_server(server)
    storage = DEFAULT_STORAGE_BANDWIDTH * sub_gpus / total_gpus
    return Cluster(
        sim,
        [racks[r] for r in sorted(racks)],
        storage_bandwidth=storage,
    )


def _build(sim: Simulator, layout: list[int], n_racks: int) -> Cluster:
    racks = [Rack(sim, f"rack-{r}") for r in range(n_racks)]
    for placement in _placements(layout, n_racks):
        gpus = [GPU(f"gpu-{placement.gpu_start + j}") for j in range(placement.n_gpus)]
        server = Server(
            sim, f"server-{placement.index}", gpus, rdma=placement.rdma
        )
        racks[placement.rack].add_server(server)
    return Cluster(sim, racks)
