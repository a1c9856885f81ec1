"""Affinity-based scheduling (Eq. 13).

    s* = argmax_{s in H_i} [ w_t * exp(-lambda (t_now - t_s))
                             + w_g * |g_s ∩ G_avail| ]

Servers that recently hosted a model keep warm host-memory caches, so
placing new stages there converts cold starts into warm starts.
"""

from __future__ import annotations

import math

from repro.cluster.server import Server

W_T = 1.0  # w_t: weight of the temporal (warm-host) term
W_G = 0.25  # w_g: weight of the GPU-availability term
DECAY = 1.0 / 120.0  # λ: temporal decay of warm hosts


class AffinityScheduler:
    """Tracks placement history per model and scores candidate servers."""

    def __init__(self) -> None:
        # model -> server id -> last time the model had parameters there
        self._history: dict[str, dict[str, float]] = {}

    def record_placement(self, model: str, server: Server, now: float) -> None:
        self._history.setdefault(model, {})[server.sid] = now

    def history(self, model: str) -> dict[str, float]:
        return dict(self._history.get(model, {}))

    def score(
        self, model: str, server: Server, now: float, min_free_bytes: float = 0.0
    ) -> float:
        """Eq. 13 score; servers never visited score on GPU availability only."""
        last = self._history.get(model, {}).get(server.sid)
        temporal = (
            W_T * math.exp(-DECAY * max(now - last, 0.0))
            if last is not None
            else 0.0
        )
        available = len(server.free_gpus(min_free_bytes))
        return temporal + W_G * available

    def rank(
        self,
        model: str,
        servers: list[Server],
        now: float,
        min_free_bytes: float = 0.0,
    ) -> list[Server]:
        return sorted(
            servers,
            key=lambda s: self.score(model, s, now, min_free_bytes),
            reverse=True,
        )
