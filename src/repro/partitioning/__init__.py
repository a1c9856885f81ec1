"""Fine-grained model partitioning (§5).

Implements the Eq. 2 constrained optimisation as a min-max dynamic program
over legal cut points, the Eq. 3 batch-aware activation scaling, and the
nested *granularity ladder* that makes inflight refactoring cheap: every
coarse stage is an exact union of contiguous fine stages, so merging reuses
resident parameters and splitting only loads the complement.
"""

from repro.partitioning.plan import PartitionPlan, StagePlan
from repro.partitioning.partitioner import Partitioner, PartitionerConfig
from repro.partitioning.ladder import GranularityLadder
from repro.partitioning.batch_scaling import activation_bytes, fit_alpha

__all__ = [
    "PartitionPlan",
    "StagePlan",
    "Partitioner",
    "PartitionerConfig",
    "GranularityLadder",
    "activation_bytes",
    "fit_alpha",
]
