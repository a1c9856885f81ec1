"""FlexPipe core: configuration, serving-system base, and the controller.

``FlexPipeSystem`` composes the three innovations (fine-grained
partitioning, inflight refactoring, adaptive scaling) over the shared
substrate; the baselines in ``repro.baselines`` reuse the same base class
and deployment machinery so comparisons isolate *policy* differences.
"""

from repro.core.config import FlexPipeConfig
from repro.core.context import ServingContext
from repro.core.serving import ServingSystem
from repro.core.deployment import ReplicaFactory
from repro.core.flexpipe import FlexPipeSystem
from repro.core.admission import (
    AdmissionGate,
    AdmissionPolicy,
    AlwaysAdmit,
    QueueCapPolicy,
    SLOFeasiblePolicy,
)

__all__ = [
    "FlexPipeConfig",
    "ServingContext",
    "ServingSystem",
    "ReplicaFactory",
    "FlexPipeSystem",
    "AdmissionGate",
    "AdmissionPolicy",
    "AlwaysAdmit",
    "QueueCapPolicy",
    "SLOFeasiblePolicy",
]
