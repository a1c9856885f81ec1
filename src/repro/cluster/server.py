"""Server (node) model: GPUs + host memory + PCIe + NIC."""

from __future__ import annotations

from repro.cluster.gpu import GPU
from repro.simulation.engine import Simulator
from repro.transfer.links import (
    GB,
    NIC_BANDWIDTH,
    PCIE_BANDWIDTH,
    FairShareLink,
    LinkSpec,
)

# The local NVMe drive behind the warm cache's demotion tier (sequential
# read rate); a scenario may resize the drive, never its rate.
SSD_CAPACITY = 2048.0 * GB
SSD_BANDWIDTH = 6.0 * GB


class Server:
    """A physical node hosting one or more GPUs.

    The server owns three fair-share links used during scaling:

    * ``pcie`` — host-memory -> GPU parameter loads (warm starts);
    * ``ssd`` — local-NVMe -> GPU parameter loads (the second cache tier:
      slower than host memory, much faster than contended remote storage);
    * ``nic`` — network ingest (cold loads from storage, KV migration).

    Host memory holds the warm parameter cache of §7 ("parameter copies in
    host memory even after GPU eviction"); the local SSD backs the cache's
    demotion tier, so host evictions degrade to SSD-warm instead of cold.
    """

    def __init__(
        self,
        sim: Simulator,
        sid: str,
        gpus: list[GPU],
        *,
        host_memory: float = 256.0 * GB,
        rdma: bool = False,
    ):
        if not gpus:
            raise ValueError(f"server {sid} must have at least one GPU")
        self.sim = sim
        self.sid = sid
        self.rack_id = "rack-0"  # set by Rack.add_server
        self.gpus = list(gpus)
        for gpu in self.gpus:
            gpu.server = self
        self.host_memory = host_memory
        self.host_memory_used = 0.0
        self.rdma = rdma
        self.ssd_capacity = SSD_CAPACITY
        self.ssd_bandwidth = SSD_BANDWIDTH
        self.ssd_used = 0.0
        self.pcie = FairShareLink(sim, LinkSpec(f"{sid}/pcie", PCIE_BANDWIDTH, 10e-6))
        self.nic = FairShareLink(sim, LinkSpec(f"{sid}/nic", NIC_BANDWIDTH, 100e-6))
        self.ssd = FairShareLink(sim, LinkSpec(f"{sid}/ssd", SSD_BANDWIDTH, 50e-6))

    @property
    def host_memory_free(self) -> float:
        return self.host_memory - self.host_memory_used

    def host_reserve(self, nbytes: float) -> bool:
        """Reserve host memory for the warm cache; False if it cannot fit."""
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if nbytes > self.host_memory_free + 1e-6:
            return False
        self.host_memory_used += nbytes
        return True

    def host_release(self, nbytes: float) -> None:
        self.host_memory_used -= nbytes
        # Tolerance is in *bytes*: at GB magnitudes one float64 ulp is
        # ~2e-6 bytes, so a heavily churned cache accumulates rounding
        # noise far above any epsilon-scale guard.
        if self.host_memory_used < -1024.0:
            raise ValueError(f"host memory under-flow on {self.sid}")
        self.host_memory_used = max(self.host_memory_used, 0.0)

    @property
    def ssd_free(self) -> float:
        return self.ssd_capacity - self.ssd_used

    def ssd_reserve(self, nbytes: float) -> bool:
        """Reserve SSD space for the cache's demotion tier; False = no fit."""
        if nbytes < 0:
            raise ValueError(f"negative reservation: {nbytes}")
        if nbytes > self.ssd_free + 1e-6:
            return False
        self.ssd_used += nbytes
        return True

    def ssd_release(self, nbytes: float) -> None:
        self.ssd_used -= nbytes
        if self.ssd_used < -1024.0:  # byte-scale tolerance, see host_release
            raise ValueError(f"SSD under-flow on {self.sid}")
        self.ssd_used = max(self.ssd_used, 0.0)

    def free_gpus(self, min_free_bytes: float = 0.0) -> list[GPU]:
        """GPUs with at least ``min_free_bytes`` of free memory."""
        return [g for g in self.gpus if g.free_memory >= min_free_bytes]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Server({self.sid}, gpus={len(self.gpus)}, rack={self.rack_id})"
