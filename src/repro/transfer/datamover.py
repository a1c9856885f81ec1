"""Transfer-method selection for KV-cache and parameter migration (§8).

The paper's implementation avoids NCCL for post-refactoring KV migration
because connection establishment costs seconds; it uses RDMA when available
and falls back to ``sendfile`` kernel-space copies otherwise.  This module
reproduces that decision procedure and its cost model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.transfer.links import GB, PCIE_BANDWIDTH


class TransferMethod(enum.Enum):
    """How bytes move between two servers (or GPUs)."""

    LOCAL = "local"  # same-server GPU<->GPU over NVLink/PCIe
    RDMA = "rdma"
    SENDFILE = "sendfile"
    NCCL = "nccl"  # modelled only to quantify what FlexPipe avoids


@dataclass(frozen=True)
class TransferCosts:
    """Setup latency + effective bandwidth per method.

    Defaults follow §8: NCCL connection establishment costs seconds; RDMA
    setup is microseconds at near-line-rate; sendfile avoids user-space
    copies but routes through the kernel TCP stack.
    """

    rdma_setup: float = 150e-6
    rdma_bandwidth: float = 11.0 * GB  # ~90% of 100 Gbps line rate
    sendfile_setup: float = 1.2e-3
    sendfile_bandwidth: float = 8.5 * GB  # kernel-space TCP, no user copies
    nccl_setup: float = 2.8  # "several seconds" connection establishment
    nccl_bandwidth: float = 11.0 * GB
    local_setup: float = 20e-6
    local_bandwidth: float = PCIE_BANDWIDTH


@dataclass(frozen=True)
class TransferPlan:
    """A concrete plan for moving ``nbytes`` between two endpoints."""

    method: TransferMethod
    nbytes: float
    setup_time: float
    bandwidth: float

    @property
    def duration(self) -> float:
        return self.setup_time + self.nbytes / self.bandwidth


class DataMover:
    """Chooses the cheapest supported method for each migration."""

    def __init__(self, costs: TransferCosts | None = None):
        self.costs = costs or TransferCosts()

    def plan(
        self,
        nbytes: float,
        *,
        same_server: bool,
        src_rdma: bool,
        dst_rdma: bool,
        force_nccl: bool = False,
    ) -> TransferPlan:
        """Plan a transfer following the §8 hierarchy.

        ``force_nccl`` exists so ablations can quantify the overhead the
        hierarchical mechanism eliminates.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        costs = self.costs
        if force_nccl:
            return TransferPlan(
                TransferMethod.NCCL, nbytes, costs.nccl_setup, costs.nccl_bandwidth
            )
        if same_server:
            return TransferPlan(
                TransferMethod.LOCAL, nbytes, costs.local_setup, costs.local_bandwidth
            )
        if src_rdma and dst_rdma:
            return TransferPlan(
                TransferMethod.RDMA, nbytes, costs.rdma_setup, costs.rdma_bandwidth
            )
        return TransferPlan(
            TransferMethod.SENDFILE,
            nbytes,
            costs.sendfile_setup,
            costs.sendfile_bandwidth,
        )
