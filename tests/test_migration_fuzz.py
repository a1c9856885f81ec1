"""Property-based fuzzing of the transfer/migration layer (tier-1).

Fixed seeds keep the suite deterministic; the detection-power tests
poison known-good schedules so each invariant demonstrably fires.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.transfer.datamover import DataMover, TransferMethod, TransferPlan
from repro.transfer.links import FairShareLink, LinkSpec, MB
from repro.transfer.migration import (
    Endpoint,
    ItemKind,
    MigrationItem,
    MigrationPlanner,
    ScheduledTransfer,
)
from repro.validation.migration_fuzz import (
    MigrationFuzzCase,
    check_method_selection,
    check_schedule,
    expected_method,
    fuzz_link_case,
    fuzz_migration_case,
    fuzz_seeds,
    random_costs,
    random_items,
)

SEEDS = (0, 1, 2, 3, 4)


# ----------------------------------------------------------------------
# Seeded fuzz cases hold every invariant
# ----------------------------------------------------------------------
class TestSeededFuzz:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_case_is_clean(self, seed):
        report = fuzz_migration_case(MigrationFuzzCase(seed=seed))
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.schedules == 25
        assert report.items > 0

    def test_case_is_deterministic(self):
        a = fuzz_migration_case(MigrationFuzzCase(seed=1))
        b = fuzz_migration_case(MigrationFuzzCase(seed=1))
        assert (a.items, a.schedules, a.transfers) == (
            b.items,
            b.schedules,
            b.transfers,
        )

    def test_fan_out_reports_per_seed(self):
        reports = fuzz_seeds(
            seeds=3, runner=ExperimentRunner(jobs=1, use_cache=False), case_kwargs={"rounds": 5}
        )
        assert [r.case.seed for r in reports] == [0, 1, 2]
        assert all(r.ok for r in reports)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lpt_schedule_invariants_directly(self, seed):
        """The planner's output satisfies the stated bounds for arbitrary
        seeded item sets, both KV-first and unordered."""
        rng = RandomStreams(seed).stream("direct")
        planner = MigrationPlanner()
        for _ in range(10):
            items = random_items(rng, max_items=30, max_servers=5)
            for kv_first in (True, False):
                schedule = planner.schedule(items, kv_first=kv_first)
                violations = check_schedule(
                    items, schedule, kv_first=kv_first
                )
                assert violations == [], "\n".join(map(str, violations))


# ----------------------------------------------------------------------
# Detection power: poisoned schedules must be flagged
# ----------------------------------------------------------------------
@pytest.fixture
def good_schedule():
    a = Endpoint("s0", "s0g0")
    b = Endpoint("s1", "s1g0")
    c = Endpoint("s2", "s2g0")
    items = [
        MigrationItem(ItemKind.KV, 256 * MB, a, b, tag="kv0"),
        MigrationItem(ItemKind.PARAMS, 512 * MB, a, b, tag="p0"),
        MigrationItem(ItemKind.PARAMS, 128 * MB, c, b, tag="p1"),
        MigrationItem(ItemKind.KV, 64 * MB, b, c, tag="kv1"),
    ]
    return items, MigrationPlanner().schedule(items)


def invariants_of(violations):
    return {v.invariant for v in violations}


class TestDetectionPower:
    def test_good_schedule_is_clean(self, good_schedule):
        items, schedule = good_schedule
        assert check_schedule(items, schedule) == []

    def test_dropped_item_flagged(self, good_schedule):
        items, schedule = good_schedule
        schedule.transfers.pop()
        assert "migration-conservation" in invariants_of(
            check_schedule(items, schedule)
        )

    def test_duplicated_transfer_flagged(self, good_schedule):
        items, schedule = good_schedule
        schedule.transfers.append(schedule.transfers[0])
        assert "migration-conservation" in invariants_of(
            check_schedule(items, schedule)
        )

    def test_channel_overlap_flagged(self, good_schedule):
        items, schedule = good_schedule
        # Move every transfer to start at 0: streams sharing a NIC overlap.
        schedule.transfers = [
            ScheduledTransfer(t.item, t.plan, 0.0, t.plan.duration)
            for t in schedule.transfers
        ]
        assert "migration-channel-overlap" in invariants_of(
            check_schedule(items, schedule)
        )

    def test_kv_ordering_violation_flagged(self, good_schedule):
        items, schedule = good_schedule
        # Shift all KV transfers after the params on their channels.
        last = schedule.makespan
        schedule.transfers = [
            ScheduledTransfer(t.item, t.plan, t.start + last, t.end + last)
            if t.item.kind is ItemKind.KV
            else t
            for t in schedule.transfers
        ]
        assert "migration-kv-ordering" in invariants_of(
            check_schedule(items, schedule)
        )

    def test_stretched_slot_flagged(self, good_schedule):
        items, schedule = good_schedule
        t = schedule.transfers[0]
        schedule.transfers[0] = ScheduledTransfer(
            t.item, t.plan, t.start, t.end + 1.0
        )
        assert "migration-timing" in invariants_of(
            check_schedule(items, schedule)
        )

    def test_makespan_below_longest_stream_flagged(self, good_schedule):
        items, schedule = good_schedule
        # Compress every slot to zero length: the makespan lower bounds
        # (longest stream, busiest channel) both break.
        schedule.transfers = [
            ScheduledTransfer(t.item, t.plan, 0.0, 0.0)
            for t in schedule.transfers
        ]
        found = invariants_of(check_schedule(items, schedule))
        assert "migration-makespan" in found


# ----------------------------------------------------------------------
# Link-layer properties
# ----------------------------------------------------------------------
class TestLinkProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_contention_holds_physics(self, seed):
        rng = RandomStreams(seed).stream("links")
        for _ in range(5):
            violations = fuzz_link_case(rng)
            assert violations == [], "\n".join(map(str, violations))

    def test_many_stream_round_audits_the_rate_rule(self, monkeypatch):
        """Hundreds of streams hold the two-pass rule at every completion,
        and a skewed fair-group rate is caught (detection power)."""
        def round_():
            rng = RandomStreams(0).stream("links-many")
            return fuzz_link_case(rng, streams=(300, 400))

        assert round_() == []
        rebalance = FairShareLink._rebalance

        def skewed(link, now):
            rebalance(link, now)
            link._fair_rate *= 1.001

        monkeypatch.setattr(FairShareLink, "_rebalance", skewed)
        assert "link-rates" in invariants_of(round_())

    def test_contention_never_speeds_a_stream_up(self):
        """Fair sharing: adding background streams cannot make a transfer
        finish earlier than it does alone."""
        spec = LinkSpec("solo", 10.0 * 1024 * MB, 1e-4)

        def run(background: int) -> float:
            sim = Simulator()
            link = FairShareLink(sim, spec)
            probe = link.transfer(512 * MB)
            for _ in range(background):
                link.transfer(256 * MB)
            sim.run_until_idle()
            assert probe.duration is not None
            return probe.duration

        alone = run(0)
        for n in (1, 2, 5):
            assert run(n) >= alone - 1e-9

    def test_rate_cap_lower_bounds_duration(self):
        sim = Simulator()
        link = FairShareLink(sim, LinkSpec("capped", 1024 * MB, 0.0))
        handle = link.transfer(100 * MB, max_rate=10 * MB)
        sim.run_until_idle()
        assert handle.duration == pytest.approx(10.0, rel=1e-6)


# ----------------------------------------------------------------------
# §8 method-selection invariants (DataMover hierarchy through the planner)
# ----------------------------------------------------------------------
class TestMethodSelection:
    def make(self, *, src_rdma=True, dst_rdma=True, same_server=False):
        src = Endpoint("s0", "s0g0", rdma=src_rdma)
        dst = Endpoint(
            "s0" if same_server else "s1",
            "s0g1" if same_server else "s1g0",
            rdma=dst_rdma,
        )
        return [MigrationItem(ItemKind.KV, 256 * MB, src, dst, tag="kv0")]

    def check(self, items, planner=None, **kwargs):
        planner = planner or MigrationPlanner()
        schedule = planner.schedule(items)
        return schedule, check_method_selection(
            items,
            schedule,
            costs=planner.mover.costs,
            force_nccl=planner.force_nccl,
            **kwargs,
        )

    def test_planner_output_is_clean_for_every_endpoint_shape(self):
        for kwargs in (
            {"same_server": True},
            {"src_rdma": True, "dst_rdma": True},
            {"src_rdma": True, "dst_rdma": False},
            {"src_rdma": False, "dst_rdma": False},
        ):
            _, violations = self.check(self.make(**kwargs))
            assert violations == [], "\n".join(map(str, violations))

    def test_expected_hierarchy(self):
        assert expected_method(self.make(same_server=True)[0]) is TransferMethod.LOCAL
        assert expected_method(self.make()[0]) is TransferMethod.RDMA
        assert (
            expected_method(self.make(dst_rdma=False)[0])
            is TransferMethod.SENDFILE
        )
        assert (
            expected_method(self.make()[0], force_nccl=True)
            is TransferMethod.NCCL
        )

    def test_rdma_demoted_to_sendfile_flagged(self):
        """The headline §8 property: both endpoints RDMA-capable => the
        plan must use RDMA, and a sendfile fallback is a regression."""
        items = self.make()
        planner = MigrationPlanner()
        schedule = planner.schedule(items)
        t = schedule.transfers[0]
        demoted = DataMover().plan(
            t.item.nbytes, same_server=False, src_rdma=False, dst_rdma=False
        )
        schedule.transfers[0] = ScheduledTransfer(
            t.item, demoted, t.start, t.start + demoted.duration
        )
        found = invariants_of(
            check_method_selection(items, schedule, costs=planner.mover.costs)
        )
        assert "migration-method" in found

    def test_forced_nccl_expected_and_clean(self):
        planner = MigrationPlanner(force_nccl=True)
        _, violations = self.check(self.make(), planner=planner)
        assert violations == []
        schedule = planner.schedule(self.make())
        assert schedule.transfers[0].plan.method is TransferMethod.NCCL

    def test_wrong_bandwidth_in_plan_flagged(self):
        """A plan claiming RDMA but carrying another method's bandwidth
        breaks the costs-honoured invariant."""
        items = self.make()
        planner = MigrationPlanner()
        schedule = planner.schedule(items)
        t = schedule.transfers[0]
        costs = planner.mover.costs
        forged = TransferPlan(
            TransferMethod.RDMA,
            t.plan.nbytes,
            costs.rdma_setup,
            costs.sendfile_bandwidth,  # wrong physics for the method
        )
        schedule.transfers[0] = ScheduledTransfer(
            t.item, forged, t.start, t.start + forged.duration
        )
        found = invariants_of(
            check_method_selection(items, schedule, costs=costs)
        )
        assert "migration-method-costs" in found

    def test_slot_not_using_method_bandwidth_flagged(self):
        """A correct plan whose *schedule slot* was stretched (bandwidth
        not actually used) is caught even though the plan looks right."""
        items = self.make()
        planner = MigrationPlanner()
        schedule = planner.schedule(items)
        t = schedule.transfers[0]
        schedule.transfers[0] = ScheduledTransfer(
            t.item, t.plan, t.start, t.end + 1.0
        )
        found = invariants_of(
            check_method_selection(items, schedule, costs=planner.mover.costs)
        )
        assert "migration-method-costs" in found

    def test_randomised_costs_round_trip_clean(self):
        """The invariants hold for arbitrary (seeded) cost tables — the
        planner must honour whatever physics it is configured with."""
        rng = RandomStreams(5).stream("costs")
        for _ in range(10):
            costs = random_costs(rng)
            planner = MigrationPlanner(DataMover(costs))
            items = random_items(rng, max_items=20, max_servers=4)
            schedule = planner.schedule(items)
            violations = check_method_selection(
                items, schedule, costs=costs
            )
            assert violations == [], "\n".join(map(str, violations))
