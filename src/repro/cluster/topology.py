"""Rack-level topology: groups of servers behind a shared uplink."""

from __future__ import annotations

from repro.cluster.server import Server
from repro.simulation.engine import Simulator
from repro.transfer.links import GB, FairShareLink, LinkSpec

UPLINK_BANDWIDTH = 50.0 * GB


class Rack:
    """A rack of servers sharing a network uplink.

    The uplink is the rack-level resource the Hierarchical Resource Graph
    tracks (network bandwidth tier in §7).
    """

    def __init__(self, sim: Simulator, rid: str):
        self.rid = rid
        self.servers: list[Server] = []
        self.uplink = FairShareLink(sim, LinkSpec(f"{rid}/uplink", UPLINK_BANDWIDTH, 50e-6))

    def add_server(self, server: Server) -> None:
        server.rack_id = self.rid
        self.servers.append(server)

    @property
    def gpus(self) -> list:
        return [gpu for server in self.servers for gpu in server.gpus]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rack({self.rid}, servers={len(self.servers)})"
