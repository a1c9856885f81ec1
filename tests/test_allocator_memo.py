"""The capacity epoch and the certified-infeasible placement memo.

A failed placement is memoised only when the one-pass matching
certificate proves that *no* scorer could place it; the memo holds until
the cluster's capacity epoch moves, and every capacity-adding change
moves it.  A tenant hosting no stage is memoised by shape, so same-shape
tenants share one proof.  Brute force over stage-to-GPU assignments is
the oracle.
"""

from __future__ import annotations

import gc
import itertools
import random
import weakref
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

    def test_audit_flags_a_stale_shape_memo(self, blocked):
        assert blocked.allocator.audit_balance() == []
        # Same forgery under a shape key (no owner): it must be audited too.
        key = (None, (10 * GB,), frozenset())
        blocked.allocator._infeasible[key] = blocked.cluster.capacity_epoch
        problems = blocked.allocator.audit_balance()
        assert any("stale placement memo" in p for p in problems)

    @pytest.mark.parametrize("seed", range(4))
    def test_memo_hits_stay_infeasible_under_random_churn(self, sim, seed):
        """Several tenants request the same shapes, so memo hits on a
        proof another tenant certified happen; the requesting tenant's own
        matching test and brute force confirm every hit."""
        cluster = make_small_cluster(sim, n_servers=3, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        scans = _counting(allocator)
        rng = random.Random(seed)
        # "a" and "b" keep what they win and host stages; the others give
        # a won placement straight back, so they mostly host nothing.
        models = ("a", "b", "c", "d", "e")
        shapes = ((40 * GB,), (30 * GB, 30 * GB), (50 * GB, 20 * GB, 20 * GB))
        live, tenants, hits, shared_hits = [], [], 0, 0
        certifier: dict[tuple, str] = {}  # memo key -> who certified it
        for step in range(400):
            gpu = rng.choice(cluster.gpus)
            op = rng.random()
            if op < 0.2:
                try:
                    live.append(
                        allocator.reserve_on(
                            rng.choice("ab"), gpu, rng.choice((5, 15, 25)) * GB
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
                # A few tenants in a row want the same shape, as blocked
                # tenants of one model size do each control tick.
                sizes = list(rng.choice(shapes))
                for model in rng.sample(models, rng.randint(1, 3)):
                    before, certified = len(scans), allocator.new_certificates
                    try:
                        got = allocator.allocate_stages(model, sizes)
                    except AllocationError as exc:
                        key = exc.certificate.key if exc.certificate else None
                        if allocator.new_certificates > certified:
                            certifier[key] = model
                        if len(scans) == before:
                            hits += 1
                            shared_hits += certifier[key] != model
                            assert not allocator._matching_exists(model, sizes, ())
                            assert not _brute_force_fits(allocator, model, sizes)
                        continue
                    if model in "ab":
                        live += got
                    else:
                        for res in got:
                            allocator.release(res)
            assert allocator.audit_balance() == []
        assert hits > 0 and shared_hits > 0


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
            allocator.allocate_stages("batch", [2 * ctx.cluster.gpus[0].memory])
        assert len(allocator.open_reclaim_demands()) == 1
        # Settle the demand by hand (no capacity change), then retry: the
        # memo hit must still press the lender again.
        allocator.open_reclaim_demands()[0].resolved_at = ctx.sim.now
        scans = _counting(allocator)
        failed = allocator.failed_requests
        with pytest.raises(AllocationError):
            allocator.allocate_stages("batch", [2 * ctx.cluster.gpus[0].memory])
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
        assert hit is not None and hit.key == first.key and hit.holds()
        allocator.release(fills[0])  # capacity added: the proof lapses
        assert not first.holds() and not hit.holds()

    def test_memo_hit_error_is_freed_without_the_cyclic_gc(self, sim):
        cluster = make_small_cluster(sim, n_servers=6, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        _leave_free(allocator, 40 * GB)
        _failure(allocator, "m", [50 * GB, 50 * GB])
        hits = allocator.memo_hits
        gc.disable()
        try:
            try:
                allocator.allocate_stages("m", [50 * GB, 50 * GB])
            except AllocationError as exc:
                assert exc.certificate is not None
                ref = weakref.ref(exc)
            assert allocator.memo_hits == hits + 1
            assert ref() is None  # reference counting alone freed it
        finally:
            gc.enable()

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
        blocked.allocator._infeasible[cert.key] = blocked.cluster.capacity_epoch - 1
        assert not cert.holds()
        del blocked.allocator._infeasible[cert.key]
        assert not cert.holds()

    def test_a_sibling_renewal_revives_a_lapsed_certificate(self, blocked):
        """After the epoch moves, a same-shape tenant's failed rescan
        renews the proof, so an older certificate of that key holds
        again: the memo records the key at the current epoch."""
        allocator = blocked.allocator
        cert = _failure(allocator, "m", [50 * GB, 50 * GB]).certificate
        allocator.release(blocked.fills[0])  # 80 GB free on one GPU only
        assert not cert.holds()
        renewed = _failure(allocator, "other", [50 * GB, 50 * GB]).certificate
        assert renewed.key == cert.key
        assert cert.holds()


class TestShapeKey:
    """Tenants hosting no stage share one memo entry per stage shape; a
    tenant hosting a stage keeps its own model key."""

    def test_same_shape_tenants_share_one_entry(self, blocked):
        allocator = blocked.allocator
        first = _failure(allocator, "m", [50 * GB, 50 * GB]).certificate
        assert first.key == (None, (50 * GB, 50 * GB), frozenset())
        before = len(blocked.scans)
        sibling = _failure(allocator, "n", [50 * GB, 50 * GB]).certificate
        # No fleet scan: the sibling's failure is a memo hit.
        assert len(blocked.scans) == before
        assert sibling.key == first.key and sibling.holds()
        assert len(allocator._infeasible) == 1
        # The fixture certified the shape; both failures here are hits.
        assert (allocator.memo_hits, allocator.new_certificates) == (2, 1)

    def test_a_hosting_tenant_keeps_its_model_key(self, blocked):
        allocator = blocked.allocator
        allocator.reserve_on("n", blocked.cluster.gpus[0], 5 * GB)
        before = len(blocked.scans)
        cert = _failure(allocator, "n", [50 * GB, 50 * GB]).certificate
        # Anti-affinity removes the hosting GPU from n's eligible set, so
        # the shape entry of the fixture does not answer for n.
        assert len(blocked.scans) == before + 1
        assert cert.key == ("n", (50 * GB, 50 * GB), frozenset())
        assert len(allocator._infeasible) == 2

    def test_a_hosting_tenant_is_not_proved_infeasible_for_others(self, sim):
        cluster = make_small_cluster(sim, n_servers=1, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        g0, g1 = cluster.gpus
        allocator.reserve_on("fill", g1, g1.free_memory - 40 * GB)
        allocator.reserve_on("n", g0, 5 * GB)
        # n may not use g0, so its one-stage 50 GB placement has no
        # matching; a tenant hosting nothing may use g0.
        assert _failure(allocator, "n", [50 * GB]).certificate is not None
        (got,) = allocator.allocate_stages("m", [50 * GB])
        assert got.gpu is g0

    def test_hosting_count_follows_the_tags(self, sim):
        cluster = make_small_cluster(sim, n_servers=1, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        g0, g1 = cluster.gpus
        a = allocator.reserve_on("m", g0, 1 * GB)
        b = allocator.reserve_on("m", g0, 1 * GB, allow_same_model=True)
        c = allocator.reserve_on("m", g1, 1 * GB)
        assert cluster.hosting_gpus == {"m": 2}
        allocator.release(a)
        assert cluster.hosting_gpus == {"m": 2}  # g0 still holds b
        allocator.release(b)
        assert cluster.hosting_gpus == {"m": 1}
        allocator.release(c)
        assert cluster.hosting_gpus == {}
        assert allocator.audit_balance() == []

    def test_audit_flags_a_drifted_hosting_count(self, blocked):
        blocked.cluster.hosting_gpus["ghost"] = 1
        problems = blocked.allocator.audit_balance()
        assert any("hosting GPUs per model" in p for p in problems)


class TestLiveReservationCounts:
    def test_gpus_in_use_matches_the_recompute(self, sim):
        cluster = make_small_cluster(sim, n_servers=2, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        rng = random.Random(3)
        live = []
        for _ in range(200):
            if live and rng.random() < 0.4:
                allocator.release(live.pop(rng.randrange(len(live))))
            else:
                gpu = rng.choice(cluster.gpus)
                if gpu.free_memory > 2 * GB:
                    live.append(
                        allocator.reserve_on(
                            rng.choice("ab"), gpu, 1 * GB, allow_same_model=True
                        )
                    )
            assert allocator.gpus_in_use() == len(
                {r.gpu.gid for r in allocator.live.values()}
            )
            assert allocator.audit_balance() == []

    def test_audit_flags_a_drifted_count(self, blocked):
        blocked.allocator._live_on[blocked.cluster.gpus[0].gid] += 1
        problems = blocked.allocator.audit_balance()
        assert any("live reservations per GPU" in p for p in problems)


class TestPlacementOutcomeCounts:
    def test_each_outcome_counts_once(self, sim):
        cluster = make_small_cluster(sim, n_servers=2, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        g0, g1, g2, g3 = cluster.gpus
        for gpu, free in ((g0, 60 * GB), (g1, 30 * GB), (g2, 10 * GB), (g3, 10 * GB)):
            allocator.reserve_on("fill", gpu, gpu.free_memory - free)
        _failure(allocator, "m", [30 * GB, 60 * GB])  # a matching exists
        _failure(allocator, "m", [70 * GB])  # certified
        _failure(allocator, "n", [70 * GB])  # memo hit
        allocator.allocate_stages("m", [5 * GB])
        assert (
            allocator.placed,
            allocator.memo_hits,
            allocator.new_certificates,
            allocator.failed_with_matching,
        ) == (1, 1, 1, 1)
        assert allocator.failed_requests == 3

    def test_distserve_churn_cells(self):
        """The seed-0 ``coldstart-economy`` quick pass runs DistServe at
        scenario seeds 0 and 1.  With one proof per shape, blocked tail
        tenants certified 4,761 placements before and 81 after; failures
        while a matching exists (the greedy pass's bad luck, ROADMAP item
        13) stay at 761 + 2,042, showing nothing else moved."""
        from repro.scenarios.driver import ScenarioCase, ScenarioDriver
        from repro.scenarios.library import get_scenario

        spec = get_scenario("coldstart-economy").quick()
        certified = with_matching = 0
        for seed in (0, 1):
            driver = ScenarioDriver(ScenarioCase(spec, "DistServe", seed))
            driver.run()
            allocator = driver.system.ctx.allocator
            certified += allocator.new_certificates
            with_matching += allocator.failed_with_matching
        assert certified <= 200
        assert with_matching == 2803
