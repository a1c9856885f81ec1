"""Hierarchical Resource Graph (HRG) — topology-aware scaling coordination (§7).

The HRG annotates the server/rack/cluster hierarchy with recent scaling
events so concurrent scale-ups are routed away from paths that are already
ingesting parameters.  This converts the "resource contention problem into a
resource coordination opportunity": loads spread across PCIe/NIC/storage
paths instead of stacking on one of them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.server import Server


@dataclass(frozen=True)
class HRGWeights:
    """Relative contention weight of each hierarchy level.

    Server-level contention (PCIe + GPU memory bandwidth) hurts a concurrent
    load the most; rack uplinks and cluster storage are wider but shared by
    more nodes.
    """

    server: float = 1.0
    rack: float = 0.45
    cluster: float = 0.15
    decay: float = 1.0 / 20.0  # events older than ~20 s stop mattering


class HierarchicalResourceGraph:
    """Tracks scaling events per server/rack/cluster and scores contention."""

    def __init__(self, cluster: Cluster, weights: HRGWeights | None = None):
        self.cluster = cluster
        self.weights = weights or HRGWeights()
        self._server_events: dict[str, deque] = {}
        self._rack_events: dict[str, deque] = {}
        self._cluster_events: deque = deque()
        self.events_registered = 0
        # Level sums of one instant, keyed ("server", sid), ("rack",
        # rack_id) and ("cluster", ""); a registration at that instant
        # adds its exp(-0.0) == 1.0 to each (docs/architecture.md).
        self._sums_now: float | None = None
        self._sums: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def register_scaling_event(self, server: Server, now: float) -> None:
        """Record that a parameter load / KV migration started on ``server``.

        The touched deques are trimmed here too, so a server that is never
        scored again (full, cordoned, reclaimed) keeps only its recent events.
        """
        horizon = self._horizon(now)
        sums = self._sums_at(now)
        sid, rack_id = server.sid, server.rack_id
        for key, events in (
            (("server", sid), self._server_events.setdefault(sid, deque())),
            (("rack", rack_id), self._rack_events.setdefault(rack_id, deque())),
            (("cluster", ""), self._cluster_events),
        ):
            _trim(events, horizon)
            events.append(now)
            if key in sums:
                sums[key] += 1.0
        self.events_registered += 1

    def contention_score(self, server: Server, now: float) -> float:
        """Exponentially-decayed count of recent events along the path.

        Higher means more contention; the scaling coordinator prefers
        low-score servers.
        """
        self._sums_at(now)
        w = self.weights
        sid, rack_id = server.sid, server.rack_id
        score = w.server * self._sum("server", sid, self._server_events.get(sid), now)
        score += w.rack * self._sum("rack", rack_id, self._rack_events.get(rack_id), now)
        score += w.cluster * self._sum("cluster", "", self._cluster_events, now)
        return score

    def rank_servers(self, servers: list[Server], now: float) -> list[Server]:
        """Servers ordered from least to most contended."""
        return sorted(servers, key=lambda s: self.contention_score(s, now))

    # ------------------------------------------------------------------
    def _horizon(self, now: float) -> float:
        # Events older than five time constants no longer contribute
        # meaningfully and are trimmed.
        return now - 5.0 / self.weights.decay

    def _sums_at(self, now: float) -> dict[tuple[str, str], float]:
        """The level sums of instant ``now``; a new instant clears them."""
        if now != self._sums_now:
            self._sums_now, self._sums = now, {}
        return self._sums

    def _sum(self, level: str, name: str, events: deque | None, now: float) -> float:
        """``_decayed`` of one level, computed at most once per instant."""
        value = self._sums.get((level, name))
        if value is None:
            value = self._sums[level, name] = self._decayed(events, now)
        return value

    def _decayed(self, events: deque | None, now: float) -> float:
        if events:
            _trim(events, self._horizon(now))
        decay, total = self.weights.decay, 0.0  # left to right, unlike 3.12's sum
        for t in events or ():
            total += math.exp(-decay * (now - t))
        return total


def _trim(events: deque, horizon: float) -> None:
    while events and events[0] < horizon:
        events.popleft()
