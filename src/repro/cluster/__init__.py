"""Simulated fragmented serverless GPU cluster.

Replaces the paper's 42-server / 82-GPU Kubernetes testbed.  The cluster
carries background multi-tenant load (the fragmentation churn of §3.1),
exposes the allocation interface FlexPipe and the baselines place pipeline
stages through, and provides the Hierarchical Resource Graph used for
topology-aware scaling coordination (§7).
"""

from repro.cluster.gpu import GPU
from repro.cluster.server import Server
from repro.cluster.topology import Rack
from repro.cluster.cluster import Cluster, make_paper_cluster, make_small_cluster
from repro.cluster.fragmentation import BackgroundTenant, FragmentationModel
from repro.cluster.allocator import AllocationError, GPUAllocator, StageReservation
from repro.cluster.hrg import HierarchicalResourceGraph

__all__ = [
    "GPU",
    "Server",
    "Rack",
    "Cluster",
    "make_paper_cluster",
    "make_small_cluster",
    "BackgroundTenant",
    "FragmentationModel",
    "AllocationError",
    "GPUAllocator",
    "StageReservation",
    "HierarchicalResourceGraph",
]
