"""The capacity epoch and the certified-infeasible placement memo.

A failed placement is memoised only when the one-pass matching
certificate proves that *no* scorer could place it; the memo holds until
the cluster's capacity epoch moves, and every capacity-adding change
moves it.  Brute force over stage-to-GPU assignments is the oracle.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster.allocator import AllocationError, GPUAllocator
from repro.cluster.cluster import make_small_cluster
from repro.cluster.failures import FailureInjector, ReclamationPolicy
from repro.cluster.fragmentation import BackgroundTenant
from repro.transfer.links import GB


def _counting(allocator):
    """Count fleet scans: a memo hit raises without calling candidates."""
    calls = []
    scan = allocator.candidates

    def candidates(*args, **kwargs):
        calls.append(1)
        return scan(*args, **kwargs)

    allocator.candidates = candidates
    return calls


def _leave_free(allocator, free_bytes, model="fill"):
    """Reserve every GPU down to ``free_bytes`` free; returns the fills."""
    return [
        allocator.reserve_on(model, gpu, gpu.free_memory - free_bytes)
        for gpu in allocator.cluster.gpus
    ]


def _brute_force_fits(allocator, model, sizes, banned=()):
    eligible = [
        g
        for g in allocator.cluster.gpus
        if g.gid not in banned and not g.cordoned and not g.hosts_model(model)
    ]
    return any(
        all(g.free_memory >= m for g, m in zip(perm, sizes))
        for perm in itertools.permutations(eligible, len(sizes))
    )


@pytest.fixture
def blocked(sim):
    """A 12-GPU cluster with 40 GB free everywhere and a memoised failure
    for a two-stage 50 GB placement."""
    cluster = make_small_cluster(sim, n_servers=6, gpus_per_server=2)
    allocator = GPUAllocator(cluster)
    fills = _leave_free(allocator, 40 * GB)
    with pytest.raises(AllocationError):
        allocator.allocate_stages("m", [50 * GB, 50 * GB])
    scans = _counting(allocator)
    return SimpleNamespace(
        cluster=cluster, allocator=allocator, fills=fills, scans=scans
    )


def _memo_hit(b) -> bool:
    """Retry the blocked placement; True iff it raised without scanning."""
    before = len(b.scans)
    try:
        b.allocator.allocate_stages("m", [50 * GB, 50 * GB])
    except AllocationError:
        return len(b.scans) == before
    return False


class TestCapacityEpoch:
    def test_identical_retry_is_a_memo_hit(self, blocked):
        failed = blocked.allocator.failed_requests
        assert _memo_hit(blocked)
        assert _memo_hit(blocked)
        # The memo raises into the same except path: failures still count.
        assert blocked.allocator.failed_requests == failed + 2
        # Overwritten in place: one entry however many retries.
        assert len(blocked.allocator._infeasible) == 1

    def test_release_invalidates(self, blocked):
        epoch = blocked.cluster.capacity_epoch
        blocked.allocator.release(blocked.fills[0])
        assert blocked.cluster.capacity_epoch > epoch
        assert not _memo_hit(blocked)

    def test_resize_shrink_invalidates(self, blocked):
        fill = blocked.fills[0]
        epoch = blocked.cluster.capacity_epoch
        blocked.allocator.resize(fill, fill.nbytes - 5 * GB)
        assert blocked.cluster.capacity_epoch > epoch
        assert not _memo_hit(blocked)

    def test_background_detach_invalidates(self, blocked):
        gpu = blocked.cluster.gpus[0]
        tenant = BackgroundTenant(0, gpu, 5 * GB, 0.5, 0.05, departs_at=10.0)
        tenant.attach()
        epoch = blocked.cluster.capacity_epoch
        assert _memo_hit(blocked)
        tenant.detach()
        assert blocked.cluster.capacity_epoch > epoch
        assert not _memo_hit(blocked)

    def test_uncordon_invalidates(self, blocked):
        gpu = blocked.cluster.gpus[0]
        gpu.cordoned = True
        epoch = blocked.cluster.capacity_epoch
        assert _memo_hit(blocked)
        gpu.uncordon()
        assert blocked.cluster.capacity_epoch == epoch + 1
        assert not _memo_hit(blocked)

    def test_failure_injector_restore_invalidates(self, sim, blocked):
        victim = blocked.cluster.gpus[0]
        # Pack the victim so the reclamation blocker absorbs nothing: the
        # restore's only capacity change is the uncordon itself.
        blocked.allocator.reserve_on("pack", victim, victim.free_memory)
        system = SimpleNamespace(all_replicas=lambda: [], all_routers=lambda: {})
        injector = FailureInjector(
            sim,
            blocked.cluster,
            np.random.default_rng(0),
            system,
            ReclamationPolicy(downtime_mean=5.0),
        )
        injector.inject(victim)
        assert victim.cordoned
        epoch = blocked.cluster.capacity_epoch
        assert _memo_hit(blocked)
        sim.run_until_idle()
        assert not victim.cordoned
        assert blocked.cluster.capacity_epoch == epoch + 1
        assert not _memo_hit(blocked)

    def test_capacity_decreasing_changes_keep_the_epoch(self, blocked):
        allocator, gpu = blocked.allocator, blocked.cluster.gpus[1]
        epoch = blocked.cluster.capacity_epoch
        res = allocator.reserve_on("other", gpu, 5 * GB)
        allocator.resize(res, 10 * GB)
        BackgroundTenant(1, gpu, 5 * GB, 0.5, 0.05, departs_at=1.0).attach()
        gpu.cordoned = True
        assert blocked.cluster.capacity_epoch == epoch
        assert _memo_hit(blocked)


class TestMatchingCertificate:
    def test_scorer_luck_is_not_memoised(self, sim):
        cluster = make_small_cluster(sim, n_servers=2, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        g0, g1, g2, g3 = cluster.gpus
        for gpu, free in ((g0, 60 * GB), (g1, 30 * GB), (g2, 10 * GB), (g3, 10 * GB)):
            allocator.reserve_on("fill", gpu, gpu.free_memory - free)
        # Most-free-first hands the 30 GB stage the 60 GB fragment, so the
        # 60 GB stage finds no room — yet a matching exists.
        with pytest.raises(AllocationError):
            allocator.allocate_stages("m", [30 * GB, 60 * GB])
        assert allocator._infeasible == {}
        # Same epoch, different scorer: the retry must scan and succeed
        # (an epoch-only memo would refuse it).
        got = allocator.allocate_stages(
            "m", [30 * GB, 60 * GB], scorer=lambda g: -g.free_memory
        )
        assert [r.gpu for r in got] == [g1, g0]

    def test_certificate_matches_brute_force(self, sim):
        cluster = make_small_cluster(sim, n_servers=3, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        rng = random.Random(7)
        for _ in range(300):
            for gpu in cluster.gpus:
                for res_id in list(gpu.stage_allocations):
                    gpu.release(res_id)
                gpu.reserve("x", rng.choice((0, 20, 40, 60, 70)) * GB)
                gpu.cordoned = rng.random() < 0.15
            sizes = [rng.choice((10, 20, 40, 50)) * GB for _ in range(rng.randint(1, 4))]
            banned = {g.gid for g in rng.sample(cluster.gpus, rng.randint(0, 2))}
            assert allocator._matching_exists("m", sizes, banned) == (
                _brute_force_fits(allocator, "m", sizes, banned)
            )

    def test_audit_flags_a_stale_memo(self, blocked):
        assert blocked.allocator.audit_balance() == []
        # Forge an entry for a placement that fits at the current epoch.
        key = ("m", (10 * GB,), frozenset())
        blocked.allocator._infeasible[key] = blocked.cluster.capacity_epoch
        problems = blocked.allocator.audit_balance()
        assert any("stale placement memo" in p for p in problems)

    @pytest.mark.parametrize("seed", range(4))
    def test_memo_hits_stay_infeasible_under_random_churn(self, sim, seed):
        cluster = make_small_cluster(sim, n_servers=3, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        scans = _counting(allocator)
        rng = random.Random(seed)
        models = ("a", "b")
        shapes = ((40 * GB,), (30 * GB, 30 * GB), (50 * GB, 20 * GB, 20 * GB))
        live, tenants, hits = [], [], 0
        for step in range(400):
            gpu = rng.choice(cluster.gpus)
            op = rng.random()
            if op < 0.2:
                try:
                    live.append(
                        allocator.reserve_on(
                            rng.choice(models), gpu, rng.choice((5, 15, 25)) * GB
                        )
                    )
                except AllocationError:
                    pass
            elif op < 0.3 and live:
                allocator.release(live.pop(rng.randrange(len(live))))
            elif op < 0.4 and gpu.free_memory > 12 * GB:
                tenant = BackgroundTenant(step, gpu, 10 * GB, 0.5, 0.05, 0.0)
                tenant.attach()
                tenants.append(tenant)
            elif op < 0.5 and tenants:
                tenants.pop(rng.randrange(len(tenants))).detach()
            elif op < 0.6:
                if gpu.cordoned:
                    gpu.uncordon()
                else:
                    gpu.cordoned = True
            else:
                model, sizes = rng.choice(models), list(rng.choice(shapes))
                before = len(scans)
                try:
                    live += allocator.allocate_stages(model, sizes)
                except AllocationError:
                    if len(scans) == before:
                        hits += 1
                        assert not allocator._matching_exists(model, sizes, ())
                        assert not _brute_force_fits(allocator, model, sizes)
            assert allocator.audit_balance() == []
        assert hits > 0


class TestMemoHitSideEffects:
    def test_elastic_lender_press_fires_on_memo_hit(self, ctx):
        allocator = ctx.allocator
        allocator.enable_arbitration(
            lambda m: 0 if m == "it" else 1, share_caps={"it": 0.1, "batch": 0.3}
        )
        allocator.enable_elastic_shares(clock=lambda: ctx.sim.now)
        fleet = allocator.fleet_memory()
        # "it" borrows from "batch" above its 10% cap, then the fleet fills.
        allocator.allocate_stages("it", [0.06 * fleet, 0.04 * fleet])
        allocator.allocate_stages("it", [0.05 * fleet])
        for gpu in allocator.cluster.gpus:
            if gpu.free_memory > 0:
                allocator.reserve_on("fill", gpu, gpu.free_memory)
        with pytest.raises(AllocationError):
            allocator.allocate_stages("batch", [2 * ctx.cluster.gpus[0].spec.memory])
        assert len(allocator.open_reclaim_demands()) == 1
        # Settle the demand by hand (no capacity change), then retry: the
        # memo hit must still press the lender again.
        allocator.open_reclaim_demands()[0].resolved_at = ctx.sim.now
        scans = _counting(allocator)
        failed = allocator.failed_requests
        with pytest.raises(AllocationError):
            allocator.allocate_stages("batch", [2 * ctx.cluster.gpus[0].spec.memory])
        assert scans == []
        assert allocator.failed_requests == failed + 1
        assert len(allocator.open_reclaim_demands()) == 1


def _failure(allocator, model, sizes, **kwargs) -> AllocationError:
    with pytest.raises(AllocationError) as info:
        allocator.allocate_stages(model, sizes, **kwargs)
    return info.value


class TestInfeasibleCertificate:
    """A failure carries a certificate only when an identical retry must
    fail the same way until capacity is added."""

    def test_new_entry_and_memo_hit_both_certify(self, sim):
        cluster = make_small_cluster(sim, n_servers=6, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        fills = _leave_free(allocator, 40 * GB)
        first = _failure(allocator, "m", [50 * GB, 50 * GB]).certificate
        assert first is not None and first.holds()
        hit = _failure(allocator, "m", [50 * GB, 50 * GB]).certificate
        assert hit is not None and hit.key == first.key
        assert hit.epoch == first.epoch
        allocator.release(fills[0])  # capacity added: the proof lapses
        assert not first.holds() and not hit.holds()

    def test_scorer_luck_never_certifies(self, sim):
        cluster = make_small_cluster(sim, n_servers=2, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        g0, g1, g2, g3 = cluster.gpus
        for gpu, free in ((g0, 60 * GB), (g1, 30 * GB), (g2, 10 * GB), (g3, 10 * GB)):
            allocator.reserve_on("fill", gpu, gpu.free_memory - free)
        # The greedy scan fails, but a matching exists.
        assert _failure(allocator, "m", [30 * GB, 60 * GB]).certificate is None

    def test_prioritised_requests_never_certify(self, sim):
        cluster = make_small_cluster(sim, n_servers=6, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        allocator.enable_arbitration(lambda m: 0)
        _leave_free(allocator, 40 * GB)
        # Preempt-or-wait may free a pending claim at this epoch.
        for _ in range(2):
            err = _failure(allocator, "m", [50 * GB, 50 * GB])
            assert err.certificate is None
        # An explicit priority on a plain allocator is the same rule.
        plain = GPUAllocator(make_small_cluster(sim, n_servers=6, gpus_per_server=2))
        _leave_free(plain, 40 * GB)
        err = _failure(plain, "m", [50 * GB, 50 * GB], priority=1)
        assert err.certificate is None

    def test_elastic_shares_never_certify(self, ctx):
        allocator = ctx.allocator
        # Contracts without priorities: no preempt-or-wait either.
        allocator.enable_elastic_shares(clock=lambda: ctx.sim.now)
        _leave_free(allocator, 40 * GB)
        for _ in range(2):  # a fresh entry, then a memo hit
            err = _failure(allocator, "m", [50 * GB, 50 * GB])
            assert err.certificate is None
        assert len(allocator._infeasible) == 1

    def test_certificate_tracks_the_memo(self, blocked):
        cert = _failure(blocked.allocator, "m", [50 * GB, 50 * GB]).certificate
        assert cert.holds()
        # The memo is the single source of truth: dropping or re-stamping
        # the entry ends the proof even at an unchanged epoch.
        blocked.allocator._infeasible[cert.key] = cert.epoch - 1
        assert not cert.holds()
