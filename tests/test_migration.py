"""Tests for the contention-aware migration planner (§8)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transfer.datamover import TransferMethod
from repro.transfer.links import GB
from repro.transfer.migration import (
    Endpoint,
    ItemKind,
    MigrationItem,
    MigrationPlanner,
)


def ep(server: str, gpu: str = "g0", rdma: bool = True) -> Endpoint:
    return Endpoint(server_id=server, gpu_id=gpu, rdma=rdma)


def item(nbytes: float, src: str, dst: str, kind=ItemKind.KV, rdma=True, tag=""):
    return MigrationItem(kind, nbytes, ep(src, rdma=rdma), ep(dst, rdma=rdma), tag)


class TestMethodSelection:
    def test_same_server_uses_local(self):
        plan = MigrationPlanner().plan_item(item(1 * GB, "s1", "s1"))
        assert plan.method is TransferMethod.LOCAL

    def test_cross_server_rdma(self):
        plan = MigrationPlanner().plan_item(item(1 * GB, "s1", "s2"))
        assert plan.method is TransferMethod.RDMA

    def test_sendfile_fallback_without_rdma(self):
        plan = MigrationPlanner().plan_item(item(1 * GB, "s1", "s2", rdma=False))
        assert plan.method is TransferMethod.SENDFILE

    def test_force_nccl_ablation(self):
        planner = MigrationPlanner(force_nccl=True)
        plan = planner.plan_item(item(1 * GB, "s1", "s2"))
        assert plan.method is TransferMethod.NCCL
        assert plan.setup_time > 1.0  # "several seconds" of §8

    def test_nccl_much_slower_for_small_kv(self):
        """The §8 rationale: for MB-scale KV deltas, setup dominates."""
        fast = MigrationPlanner().plan_item(item(64e6, "s1", "s2"))
        slow = MigrationPlanner(force_nccl=True).plan_item(item(64e6, "s1", "s2"))
        assert slow.duration > 10 * fast.duration

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            item(-1.0, "s1", "s2")


class TestScheduling:
    def test_disjoint_pairs_overlap(self):
        planner = MigrationPlanner()
        schedule = planner.schedule(
            [item(1 * GB, "s1", "s2"), item(1 * GB, "s3", "s4")]
        )
        assert schedule.makespan == pytest.approx(
            max(t.plan.duration for t in schedule.transfers)
        )

    def test_shared_egress_serialises(self):
        planner = MigrationPlanner()
        schedule = planner.schedule(
            [item(1 * GB, "s1", "s2"), item(1 * GB, "s1", "s3")]
        )
        assert schedule.makespan == pytest.approx(schedule.serial_time)

    def test_shared_ingress_serialises(self):
        planner = MigrationPlanner()
        schedule = planner.schedule(
            [item(1 * GB, "s2", "s1"), item(1 * GB, "s3", "s1")]
        )
        assert schedule.makespan == pytest.approx(schedule.serial_time)

    def test_full_duplex_overlaps_in_and_out(self):
        """s1 sending and s1 receiving use different channels."""
        planner = MigrationPlanner()
        schedule = planner.schedule(
            [item(1 * GB, "s1", "s2"), item(1 * GB, "s3", "s1")]
        )
        assert schedule.makespan < schedule.serial_time

    def test_local_moves_do_not_block_nic(self):
        planner = MigrationPlanner()
        schedule = planner.schedule(
            [item(1 * GB, "s1", "s1"), item(1 * GB, "s1", "s2")]
        )
        assert schedule.makespan < schedule.serial_time

    def test_makespan_between_bounds(self):
        planner = MigrationPlanner()
        items = [
            item(0.5 * GB, "s1", "s2"),
            item(1.0 * GB, "s1", "s3"),
            item(0.25 * GB, "s2", "s3"),
            item(2.0 * GB, "s4", "s1"),
        ]
        schedule = planner.schedule(items)
        assert schedule.busiest_channel_time() <= schedule.makespan + 1e-12
        assert schedule.makespan <= schedule.serial_time + 1e-12

    def test_empty_schedule(self):
        schedule = MigrationPlanner().schedule([])
        assert schedule.makespan == 0.0
        assert schedule.total_bytes == 0.0

    def test_bytes_by_method(self):
        planner = MigrationPlanner()
        schedule = planner.schedule(
            [item(1 * GB, "s1", "s1"), item(2 * GB, "s1", "s2")]
        )
        by_method = schedule.bytes_by_method()
        assert by_method[TransferMethod.LOCAL] == pytest.approx(1 * GB)
        assert by_method[TransferMethod.RDMA] == pytest.approx(2 * GB)

    def test_kv_makespan_only_counts_kv(self):
        planner = MigrationPlanner()
        schedule = planner.schedule(
            [
                item(4 * GB, "s1", "s2", kind=ItemKind.PARAMS),
                item(0.1 * GB, "s3", "s4", kind=ItemKind.KV),
            ]
        )
        assert schedule.kv_makespan() < schedule.makespan

    @given(
        sizes=st.lists(
            st.floats(min_value=1e6, max_value=5e9), min_size=1, max_size=12
        ),
        servers=st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_is_channel_consistent(self, sizes, servers):
        """No two transfers overlap on any channel; bounds always hold."""
        planner = MigrationPlanner()
        items = [
            item(s, f"s{i % servers}", f"s{(i + 1) % servers}", tag=str(i))
            for i, s in enumerate(sizes)
        ]
        schedule = planner.schedule(items)
        busy: dict[str, list[tuple[float, float]]] = {}
        for t in schedule.transfers:
            src, dst = t.item.src.server_id, t.item.dst.server_id
            channels = (
                [f"{src}:pcie"]
                if src == dst
                else [f"{src}:egress", f"{dst}:ingress"]
            )
            for c in channels:
                for a, b in busy.get(c, []):
                    assert t.end <= a + 1e-9 or t.start >= b - 1e-9
                busy.setdefault(c, []).append((t.start, t.end))
        assert schedule.busiest_channel_time() <= schedule.makespan + 1e-9
        assert schedule.makespan <= schedule.serial_time + 1e-9
