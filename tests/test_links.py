"""Tests for fair-share links and the §8 data-mover hierarchy."""

from __future__ import annotations

import random

import pytest

from repro.simulation.engine import Simulator
from repro.transfer.datamover import DataMover, TransferCosts, TransferMethod
from repro.transfer.links import GB, FairShareLink, LinkSpec


def make_link(sim, bandwidth=1.0 * GB, latency=0.0):
    return FairShareLink(sim, LinkSpec("test", bandwidth, latency))


def _waterfill_two_lists(active, bandwidth):
    """Rates and classes from the two-list partition (``uncapped`` built by
    a membership scan of ``capped``), kept as the rate-rule oracle.

    A stream is ``"capped"`` when it lands in the capped list, ``"own"``
    when the uncapped ``min(cap, fair)`` picks its cap, else ``"fair"``."""
    share = bandwidth / len(active)
    capped = [h for h in active if h.max_rate is not None and h.max_rate < share]
    uncapped = [h for h in active if h not in capped]
    rate = {}
    kind = {}
    used = 0.0
    for handle in capped:
        rate[handle] = handle.max_rate
        kind[handle] = "capped"
        used += rate[handle]
    if uncapped:
        fair = max(bandwidth - used, 0.0) / len(uncapped)
        for handle in uncapped:
            own = handle.max_rate is not None and handle.max_rate <= fair
            rate[handle] = handle.max_rate if own else fair
            kind[handle] = "own" if own else "fair"
    return [max(rate[h], 1e-9) for h in active], [kind[h] for h in active]


class TestFairShareLink:
    def test_single_transfer_takes_serial_time(self, sim):
        link = make_link(sim)
        done = []
        link.transfer(2.0 * GB, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_latency_added_once(self, sim):
        link = make_link(sim, latency=0.5)
        done = []
        link.transfer(1.0 * GB, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.5)]

    def test_two_transfers_share_bandwidth(self, sim):
        link = make_link(sim)
        done = []
        link.transfer(1.0 * GB, lambda: done.append(("a", sim.now)))
        link.transfer(1.0 * GB, lambda: done.append(("b", sim.now)))
        sim.run()
        # Both need 1s alone; sharing doubles both to 2s.
        assert done[0][1] == pytest.approx(2.0)
        assert done[1][1] == pytest.approx(2.0)

    def test_contention_is_monotone(self, sim):
        """A transfer under contention never finishes before one alone."""
        lone_sim = Simulator()
        lone = make_link(lone_sim)
        lone_done = []
        lone.transfer(4.0 * GB, lambda: lone_done.append(lone_sim.now))
        lone_sim.run()

        link = make_link(sim)
        busy_done = []
        link.transfer(4.0 * GB, lambda: busy_done.append(sim.now))
        link.transfer(4.0 * GB, lambda: None)
        sim.run()
        assert busy_done[0] >= lone_done[0]

    def test_late_joiner_slows_in_flight_transfer(self, sim):
        link = make_link(sim)
        done = {}
        link.transfer(2.0 * GB, lambda: done.setdefault("first", sim.now))
        sim.schedule(1.0, link.transfer, 2.0 * GB, lambda: done.setdefault("second", sim.now))
        sim.run()
        # First moved 1 GB alone, then shares: remaining 1 GB at 0.5 GB/s -> t=3.
        assert done["first"] == pytest.approx(3.0)

    def test_per_stream_rate_cap_enforced(self, sim):
        link = make_link(sim, bandwidth=10.0 * GB)
        done = []
        link.transfer(1.0 * GB, lambda: done.append(sim.now), max_rate=0.5 * GB)
        sim.run()
        assert done == [pytest.approx(2.0)]

    def test_waterfill_redistributes_capped_leftover(self, sim):
        link = make_link(sim, bandwidth=2.0 * GB)
        done = {}
        # Capped stream uses 0.5; uncapped stream should get the rest (1.5).
        link.transfer(1.0 * GB, lambda: done.setdefault("capped", sim.now), max_rate=0.5 * GB)
        link.transfer(3.0 * GB, lambda: done.setdefault("open", sim.now))
        sim.run()
        assert done["capped"] == pytest.approx(2.0)
        assert done["open"] == pytest.approx(2.0, rel=0.05)

    def test_zero_byte_transfer_pays_latency_only(self, sim):
        link = make_link(sim, latency=0.25)
        done = []
        link.transfer(0.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(0.25)]

    def test_active_count_tracks_in_flight(self, sim):
        link = make_link(sim)
        link.transfer(1.0 * GB)
        link.transfer(1.0 * GB)
        assert link.active_count == 2
        sim.run()
        assert link.active_count == 0
        assert link.transfers_completed == 2

    def test_estimate_time_reflects_contention(self, sim):
        link = make_link(sim)
        empty = link.estimate_time(1.0 * GB)
        link.transfer(8.0 * GB)
        assert link.estimate_time(1.0 * GB) > empty

    def test_invalid_max_rate_rejected(self, sim):
        link = make_link(sim)
        with pytest.raises(ValueError):
            link.transfer(1.0, max_rate=0.0)

    def test_invalid_bandwidth_rejected(self, sim):
        with pytest.raises(ValueError):
            FairShareLink(sim, LinkSpec("bad", 0.0))

    @pytest.mark.parametrize("seed", range(20))
    def test_waterfill_matches_two_list_partition(self, seed):
        """The same cap mixes, started through ``transfer()`` and read
        through the public ``rate``: classes identical, rates within 1e-12
        relative of the two-list partition."""
        rng = random.Random(seed)
        bandwidth = rng.uniform(0.5, 20.0) * GB
        for _ in range(25):
            n = rng.randint(1, 40)
            share = bandwidth / n
            caps = []
            for _ in range(n):
                kind = rng.choice(["none", "below", "above", "equal"])
                cap = {
                    "none": None,
                    "below": share * rng.uniform(0.01, 0.999),
                    "above": share * rng.uniform(1.001, 50.0),
                    "equal": share,
                }[kind]
                caps.append(cap)
            sim = Simulator()
            link = make_link(sim, bandwidth=bandwidth)
            handles = [link.transfer(GB, max_rate=cap) for cap in caps]
            rates, classes = _waterfill_two_lists(handles, bandwidth)
            assert [link.stream_class(h) for h in handles] == classes
            for handle, want in zip(handles, rates):
                assert handle.rate == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_serial_time_helper(self):
        spec = LinkSpec("s", 2.0 * GB, latency=0.1)
        assert spec.serial_time(4.0 * GB) == pytest.approx(2.1)
        with pytest.raises(ValueError):
            spec.serial_time(-1.0)

    def test_many_transfers_all_complete(self, sim):
        link = make_link(sim)
        done = []
        for _ in range(20):
            link.transfer(0.1 * GB, lambda: done.append(sim.now))
        sim.run()
        assert len(done) == 20


class TestDataMover:
    def test_prefers_local_on_same_server(self):
        plan = DataMover().plan(GB, same_server=True, src_rdma=False, dst_rdma=False)
        assert plan.method is TransferMethod.LOCAL

    def test_prefers_rdma_when_both_sides_support_it(self):
        plan = DataMover().plan(GB, same_server=False, src_rdma=True, dst_rdma=True)
        assert plan.method is TransferMethod.RDMA

    def test_falls_back_to_sendfile_without_rdma(self):
        for src, dst in [(True, False), (False, True), (False, False)]:
            plan = DataMover().plan(GB, same_server=False, src_rdma=src, dst_rdma=dst)
            assert plan.method is TransferMethod.SENDFILE

    def test_nccl_setup_dominates_small_transfers(self):
        """§8: NCCL connection establishment costs seconds — the reason
        FlexPipe avoids it for KV migration."""
        mover = DataMover()
        rdma = mover.plan(64 * 2**20, same_server=False, src_rdma=True, dst_rdma=True)
        nccl = mover.plan(
            64 * 2**20, same_server=False, src_rdma=True, dst_rdma=True, force_nccl=True
        )
        assert nccl.duration > 10 * rdma.duration

    def test_duration_scales_with_bytes(self):
        mover = DataMover()
        small = mover.plan(GB, same_server=False, src_rdma=True, dst_rdma=True)
        large = mover.plan(10 * GB, same_server=False, src_rdma=True, dst_rdma=True)
        assert large.duration > small.duration

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            DataMover().plan(-1.0, same_server=True, src_rdma=False, dst_rdma=False)

    def test_custom_costs_respected(self):
        costs = TransferCosts(rdma_setup=1.0)
        plan = DataMover(costs).plan(0.0, same_server=False, src_rdma=True, dst_rdma=True)
        assert plan.setup_time == 1.0
