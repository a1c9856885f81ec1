"""Refactoring-time migration planning with link contention (§8).

One granularity transition moves many byte streams at once: parameter
shards for stages placed on fresh GPUs and KV shards for every in-flight
request.  Each stream individually follows the §8 method hierarchy
(:class:`~repro.transfer.datamover.DataMover`); collectively they contend
for server NICs — the effect the Hierarchical Resource Graph exists to
manage.  This module turns a set of migration items into a contention-
aware schedule:

* each server has one egress and one ingress channel (full-duplex NIC);
  a cross-server transfer occupies its source's egress and destination's
  ingress for its whole duration;
* same-server (GPU-to-GPU) moves occupy the server's PCIe channel only;
* items are list-scheduled longest-processing-time-first, the classic
  2-approximation, so the *makespan* the schedule reports is what the
  refactoring executor should budget for the overlap window.

The planner is pure (no simulator side effects): the executor feeds its
output into the event engine, and the ablation bench compares makespans
with and without coordination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.transfer.datamover import DataMover, TransferMethod, TransferPlan


class ItemKind(enum.Enum):
    """What a migration stream carries."""

    PARAMS = "params"
    KV = "kv"


@dataclass(frozen=True)
class Endpoint:
    """One side of a transfer: a GPU within a server."""

    server_id: str
    gpu_id: str
    rdma: bool = True


@dataclass(frozen=True)
class MigrationItem:
    """One byte stream the transition must move."""

    kind: ItemKind
    nbytes: float
    src: Endpoint
    dst: Endpoint
    tag: str = ""  # request id, stage index, ... (reporting only)

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError(f"negative transfer size: {self.nbytes}")

    @property
    def same_server(self) -> bool:
        return self.src.server_id == self.dst.server_id


@dataclass(frozen=True)
class ScheduledTransfer:
    """A migration item bound to a method and a time slot."""

    item: MigrationItem
    plan: TransferPlan
    start: float
    end: float


@dataclass
class MigrationSchedule:
    """The contention-aware schedule for one transition."""

    transfers: list[ScheduledTransfer] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Wall-clock time until the last stream completes."""
        return max((t.end for t in self.transfers), default=0.0)

    @property
    def total_bytes(self) -> float:
        return sum(t.item.nbytes for t in self.transfers)

    @property
    def serial_time(self) -> float:
        """Sum of individual durations (the no-parallelism upper bound)."""
        return sum(t.plan.duration for t in self.transfers)

    def bytes_by_method(self) -> dict[TransferMethod, float]:
        out: dict[TransferMethod, float] = {}
        for t in self.transfers:
            out[t.plan.method] = out.get(t.plan.method, 0.0) + t.item.nbytes
        return out

    def kv_makespan(self) -> float:
        return max(
            (t.end for t in self.transfers if t.item.kind is ItemKind.KV),
            default=0.0,
        )

    def busiest_channel_time(self) -> float:
        """Total occupancy of the most loaded channel (the true bottleneck)."""
        load: dict[str, float] = {}
        for t in self.transfers:
            for channel in channels_of(t.item):
                load[channel] = load.get(channel, 0.0) + t.plan.duration
        return max(load.values(), default=0.0)


def channels_of(item: MigrationItem) -> tuple[str, ...]:
    """The single-occupancy channels ``item`` occupies while in flight:
    the server's PCIe lane for same-server moves, otherwise the source's
    NIC egress plus the destination's NIC ingress (full-duplex)."""
    if item.same_server:
        return (f"{item.src.server_id}:pcie",)
    return (f"{item.src.server_id}:egress", f"{item.dst.server_id}:ingress")


class MigrationPlanner:
    """Plans the byte movement of one pipeline transition."""

    def __init__(self, mover: DataMover | None = None, *, force_nccl: bool = False):
        self.mover = mover or DataMover()
        self.force_nccl = force_nccl

    # ------------------------------------------------------------------
    def plan_item(self, item: MigrationItem) -> TransferPlan:
        """Method selection for a single stream (§8 hierarchy)."""
        return self.mover.plan(
            item.nbytes,
            same_server=item.same_server,
            src_rdma=item.src.rdma,
            dst_rdma=item.dst.rdma,
            force_nccl=self.force_nccl,
        )

    def schedule(
        self, items: list[MigrationItem], *, kv_first: bool = True
    ) -> MigrationSchedule:
        """List-schedule items onto per-server NIC/PCIe channels.

        Channels are single-occupancy: the schedule serialises streams
        sharing a NIC direction and overlaps everything else, which is how
        fair-share links behave to first order when streams are few and
        large (the refactoring regime).

        ``kv_first`` (the default, matching Fig. 6's sequence) schedules
        KV shards ahead of parameter loads: KV completion gates the
        switchover pause, while parameter loading overlaps with continued
        service on the old chain.  Within each class items go longest-
        processing-time-first (the classic 2-approximation).
        """
        planned = [(item, self.plan_item(item)) for item in items]
        planned.sort(
            key=lambda pair: (
                kv_first and pair[0].kind is not ItemKind.KV,
                -pair[1].duration,
            )
        )
        free_at: dict[str, float] = {}
        schedule = MigrationSchedule()
        for item, plan in planned:
            channels = channels_of(item)
            start = max((free_at.get(c, 0.0) for c in channels), default=0.0)
            end = start + plan.duration
            for c in channels:
                free_at[c] = end
            schedule.transfers.append(ScheduledTransfer(item, plan, start, end))
        schedule.transfers.sort(key=lambda t: (t.start, t.item.tag))
        return schedule
