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
        # Level sums valid for one (now, events_registered) key.  Only a
        # registration changes a deque's contents, trimming is value-neutral
        # because the horizon only moves forward with simulated time, and
        # the weights are frozen, so a sum is exact for as long as its key
        # holds.  Keys: ("server", sid), ("rack", rack_id), ("cluster", "").
        self._sums_key: tuple[float, int] | None = None
        self._sums: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def register_scaling_event(self, server: Server, now: float) -> None:
        """Record that a parameter load / KV migration started on ``server``.

        The touched deques are trimmed here too, so a server that is never
        scored again (full, cordoned, reclaimed) keeps only its recent events.
        """
        horizon = self._horizon(now)
        for events in (
            self._server_events.setdefault(server.sid, deque()),
            self._rack_events.setdefault(server.rack_id, deque()),
            self._cluster_events,
        ):
            _trim(events, horizon)
            events.append(now)
        self.events_registered += 1

    def contention_score(self, server: Server, now: float) -> float:
        """Exponentially-decayed count of recent events along the path.

        Higher means more contention; the scaling coordinator prefers
        low-score servers.
        """
        key = (now, self.events_registered)
        if key != self._sums_key:
            self._sums_key, self._sums = key, {}
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

    def _sum(self, level: str, name: str, events: deque | None, now: float) -> float:
        """``_decayed`` of one level, computed at most once per key."""
        value = self._sums.get((level, name))
        if value is None:
            value = self._sums[level, name] = self._decayed(events, now)
        return value

    def _decayed(self, events: deque | None, now: float) -> float:
        if not events:
            return 0.0
        _trim(events, self._horizon(now))
        return sum(math.exp(-self.weights.decay * (now - t)) for t in events)


def _trim(events: deque, horizon: float) -> None:
    while events and events[0] < horizon:
        events.popleft()
