"""Topology-aware scaling coordination via the HRG (§7).

Combines the Eq. 13 affinity score (warm hosts first) with the HRG
contention score (avoid paths already ingesting parameters) into the GPU
scorer handed to the allocator.  This is the piece that "transforms a
resource contention problem into a resource coordination opportunity".
"""

from __future__ import annotations

from typing import Callable

from repro.cluster.gpu import GPU
from repro.cluster.hrg import HierarchicalResourceGraph
from repro.refactoring.placement import multiplexing_penalty
from repro.scaling.affinity import AffinityScheduler

# Score weights of the HRG contention term and the Eq. 6/9 isolation term,
# against the Eq. 13 affinity score.
CONTENTION_WEIGHT = 0.5
ISOLATION_WEIGHT = 2.0


class ScalingCoordinator:
    """Builds placement scorers and records scaling traffic on the HRG."""

    def __init__(
        self,
        hrg: HierarchicalResourceGraph,
        affinity: AffinityScheduler,
        *,
        use_hrg: bool = True,
        use_affinity: bool = True,
        cv_fn: Callable[[], float] | None = None,
    ):
        self.hrg = hrg
        self.affinity = affinity
        self.use_hrg = use_hrg
        self.use_affinity = use_affinity
        self.cv_fn = cv_fn

    def scorer(self, model: str, now: float) -> Callable[[GPU], float]:
        """Higher-is-better GPU placement score for one scaling operation.

        Combines the Eq. 13 affinity score (warm hosts first), the HRG
        contention score (spread ingest paths), and the Eq. 6/9 isolation
        objective (avoid multiplexing with other models under bursty load).
        """
        cv = self.cv_fn() if self.cv_fn is not None else 0.0
        isolation = ISOLATION_WEIGHT * multiplexing_penalty(cv)
        cluster = self.hrg.cluster
        # The server part, once per server: within one deploy only a
        # release (preemption, lender reclaim) moves it, through Eq. 13's
        # free-GPU count, and every release moves the capacity epoch.
        servers: dict[tuple[int, str], float] = {}

        def score(gpu: GPU) -> float:
            server = gpu.server
            key = (cluster.capacity_epoch, server.sid)
            value = servers.get(key)
            if value is None:
                value = 0.0
                if self.use_affinity:
                    value += self.affinity.score(model, server, now)
                if self.use_hrg:
                    value -= CONTENTION_WEIGHT * self.hrg.contention_score(server, now)
                servers[key] = value
            return value - isolation * gpu.colocated_model_count

        return score

    def record_scaling(self, model: str, gpus: list[GPU], now: float) -> None:
        """Mark parameter-ingest traffic on every touched server."""
        seen = set()
        for gpu in gpus:
            server = gpu.server
            if server.sid in seen:
                continue
            seen.add(server.sid)
            self.hrg.register_scaling_event(server, now)
            self.affinity.record_placement(model, server, now)
