"""Tests for GPUs, servers, topology, fragmentation, allocator, HRG."""

from __future__ import annotations

import math
import random
from collections import Counter, deque

import pytest

from repro.cluster.allocator import AllocationError, GPUAllocator
from repro.cluster.cluster import make_paper_cluster, make_small_cluster
from repro.cluster.fragmentation import FragmentationConfig, FragmentationModel
from repro.cluster.gpu import GPU
from repro.cluster.hrg import HierarchicalResourceGraph, HRGWeights
from repro.cluster.server import Server
from repro.refactoring.placement import multiplexing_penalty
from repro.scaling.affinity import AffinityScheduler
from repro.scaling.coordinator import (
    CONTENTION_WEIGHT,
    ISOLATION_WEIGHT,
    ScalingCoordinator,
)
from repro.simulation.randomness import RandomStreams
from repro.transfer.links import GB


class TestGPU:
    def test_reserve_and_release_memory(self):
        gpu = GPU("g0")
        gpu.reserve("a", 10 * GB, model="m")
        assert gpu.free_memory == pytest.approx(70 * GB)
        gpu.release("a", model="m")
        assert gpu.free_memory == pytest.approx(80 * GB)

    def test_overcommit_rejected(self):
        gpu = GPU("g0")
        with pytest.raises(ValueError):
            gpu.reserve("a", 100 * GB)

    def test_duplicate_allocation_id_rejected(self):
        gpu = GPU("g0")
        gpu.reserve("a", GB)
        with pytest.raises(ValueError):
            gpu.reserve("a", GB)

    def test_release_unknown_id_raises(self):
        gpu = GPU("g0")
        with pytest.raises(KeyError):
            gpu.release("nope")

    def test_model_tags_track_hosting(self):
        gpu = GPU("g0")
        gpu.reserve("a", GB, model="opt")
        gpu.reserve("b", GB, model="bert")
        assert gpu.hosts_model("opt") and gpu.hosts_model("bert")
        assert gpu.colocated_model_count == 2
        gpu.release("a", model="opt")
        assert not gpu.hosts_model("opt")

    def test_multiple_stages_same_model_refcounted(self):
        gpu = GPU("g0")
        gpu.reserve("a", GB, model="opt")
        gpu.reserve("b", GB, model="opt")
        gpu.release("a", model="opt")
        assert gpu.hosts_model("opt")  # one stage still resident

    def test_resize_grows_and_shrinks(self):
        gpu = GPU("g0")
        gpu.reserve("a", 10 * GB)
        gpu.resize("a", 20 * GB)
        assert gpu.free_memory == pytest.approx(60 * GB)
        gpu.resize("a", 5 * GB)
        assert gpu.free_memory == pytest.approx(75 * GB)

    def test_resize_overcommit_rejected(self):
        gpu = GPU("g0")
        gpu.reserve("a", 10 * GB)
        with pytest.raises(ValueError):
            gpu.resize("a", 90 * GB)

    def test_occupy_serialises_work(self):
        gpu = GPU("g0")
        end1 = gpu.occupy(now=0.0, duration=2.0)
        end2 = gpu.occupy(now=1.0, duration=2.0)  # arrives while busy
        assert end1 == 2.0
        assert end2 == 4.0  # queued behind the first
        assert gpu.busy_seconds == 4.0

    def test_utilization_bounded(self):
        gpu = GPU("g0")
        gpu.occupy(0.0, 5.0)
        assert gpu.utilization(10.0) == pytest.approx(0.5)
        assert gpu.utilization(2.0) == 1.0  # capped
        assert gpu.utilization(0.0) == 0.0

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_cached_serving_mem_equals_the_recompute(self, seed):
        """The cached ``serving_mem`` is the very float the sum over the
        live allocations gives, after every reserve, resize and release
        (rejected ones included), read between writes or not."""
        rng = random.Random(seed)
        gpu = GPU("g0")
        live: list[str] = []
        for step in range(400):
            op = rng.choice(("reserve", "reserve", "resize", "release"))
            try:
                if op == "reserve":
                    alloc_id = f"a{step}"
                    gpu.reserve(alloc_id, rng.uniform(0.01, 12.0) * GB)
                    live.append(alloc_id)
                elif op == "resize" and live:
                    gpu.resize(rng.choice(live), rng.uniform(0.01, 20.0) * GB)
                elif op == "release" and live:
                    gpu.release(live.pop(rng.randrange(len(live))))
            except ValueError:
                pass  # over-commit: rejected before any write
            if rng.random() < 0.7:  # some writes are never read
                assert gpu.serving_mem == sum(gpu.stage_allocations.values())
        assert gpu.serving_mem == sum(gpu.stage_allocations.values())


class TestServer:
    def test_host_memory_accounting(self, sim):
        server = Server(sim, "s0", [GPU("g0")])
        assert server.host_reserve(100 * GB)
        assert server.host_memory_free == pytest.approx(156 * GB)
        server.host_release(100 * GB)
        assert server.host_memory_free == pytest.approx(256 * GB)

    def test_host_reserve_fails_when_full(self, sim):
        server = Server(sim, "s0", [GPU("g0")], host_memory=10 * GB)
        assert not server.host_reserve(11 * GB)

    def test_host_release_underflow_raises(self, sim):
        server = Server(sim, "s0", [GPU("g0")])
        with pytest.raises(ValueError):
            server.host_release(GB)

    def test_free_gpus_filter(self, sim):
        g0, g1 = GPU("g0"), GPU("g1")
        server = Server(sim, "s0", [g0, g1])
        g0.reserve("a", 70 * GB)
        assert server.free_gpus(min_free_bytes=20 * GB) == [g1]

    def test_server_requires_gpus(self, sim):
        with pytest.raises(ValueError):
            Server(sim, "s0", [])


class TestClusterTopology:
    def test_paper_cluster_has_42_servers_82_gpus(self, sim):
        cluster = make_paper_cluster(sim)
        assert len(cluster.servers) == 42
        assert cluster.gpu_count == 82

    def test_paper_cluster_gpu_mix(self, sim):
        cluster = make_paper_cluster(sim)
        sizes = sorted(len(s.gpus) for s in cluster.servers)
        assert sizes.count(1) == 10
        assert sizes.count(2) == 28
        assert sizes.count(4) == 4

    def test_small_cluster_dimensions(self, sim):
        cluster = make_small_cluster(sim, n_servers=4, gpus_per_server=3)
        assert len(cluster.servers) == 4
        assert cluster.gpu_count == 12

    def test_gpu_and_server_lookup(self, sim):
        cluster = make_small_cluster(sim)
        gpu = cluster.gpus[0]
        assert cluster.gpu(gpu.gid) is gpu
        assert cluster.server(gpu.server.sid) is gpu.server
        assert cluster.rack_of(gpu.server).rid == gpu.server.rack_id


class TestFragmentation:
    def test_warm_up_reaches_subscription_target(self, sim):
        cluster = make_paper_cluster(sim)
        frag = FragmentationModel(sim, cluster, RandomStreams(0))
        frag.warm_up()
        assert cluster.subscription_rate() >= 1.8  # near the 2.16 target

    def test_free_gpu_probability_drops_after_warmup(self, sim):
        cluster = make_paper_cluster(sim)
        before = cluster.free_gpu_probability()
        frag = FragmentationModel(sim, cluster, RandomStreams(0))
        frag.warm_up()
        after = cluster.free_gpu_probability()
        assert before == 1.0
        assert after < 0.5

    def test_colocated_gpus_become_scarce(self, sim):
        """The paper's headline fragmentation fact: 4 co-located free GPUs
        are essentially unobtainable (0.02% probability)."""
        cluster = make_paper_cluster(sim)
        frag = FragmentationModel(sim, cluster, RandomStreams(0))
        frag.warm_up()
        assert cluster.colocated_probability(4) <= 0.05

    def test_tenants_depart_over_time(self, sim):
        cluster = make_small_cluster(sim)
        config = FragmentationConfig(mean_lifetime=10.0)
        frag = FragmentationModel(sim, cluster, RandomStreams(0), config)
        frag.warm_up(rounds=20)
        # Tenant attach/detach must conserve memory accounting.
        sim.run(until=100.0)
        frag.stop()
        for gpu in cluster.gpus:
            assert gpu.background_mem >= -1e-6

    def test_sm_usage_well_below_subscription(self, sim):
        """Subscription ~216% but actual SM usage ~17-24% (Table 1)."""
        cluster = make_paper_cluster(sim)
        frag = FragmentationModel(sim, cluster, RandomStreams(0))
        frag.warm_up()
        samples = frag.sm_utilization_samples()
        mean_usage = sum(samples) / len(samples)
        assert mean_usage < 100 * cluster.subscription_rate() / 3


class TestAllocator:
    def test_reserve_on_specific_gpu(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        gpu = small_cluster.gpus[0]
        res = allocator.reserve_on("opt", gpu, 10 * GB)
        assert gpu.free_memory == pytest.approx(70 * GB)
        allocator.release(res)
        assert gpu.free_memory == pytest.approx(80 * GB)

    def test_same_model_anti_affinity_enforced(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        gpu = small_cluster.gpus[0]
        allocator.reserve_on("opt", gpu, GB)
        with pytest.raises(AllocationError):
            allocator.reserve_on("opt", gpu, GB)

    def test_anti_affinity_override_for_transitions(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        gpu = small_cluster.gpus[0]
        allocator.reserve_on("opt", gpu, GB)
        res = allocator.reserve_on("opt", gpu, GB, allow_same_model=True)
        assert res.gpu is gpu

    def test_different_models_may_share(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        gpu = small_cluster.gpus[0]
        allocator.reserve_on("opt", gpu, GB)
        allocator.reserve_on("bert", gpu, GB)  # no error

    def test_allocate_stages_uses_distinct_gpus(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        reservations = allocator.allocate_stages("opt", [GB] * 4)
        gpus = {r.gpu.gid for r in reservations}
        assert len(gpus) == 4

    def test_allocate_stages_atomic_on_failure(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        n = small_cluster.gpu_count
        with pytest.raises(AllocationError):
            allocator.allocate_stages("opt", [GB] * (n + 1))
        assert allocator.total_reserved() == 0

    def test_scorer_steers_placement(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        target = small_cluster.gpus[3]
        res = allocator.allocate_stages(
            "opt", [GB], scorer=lambda g: 1.0 if g is target else 0.0
        )
        assert res[0].gpu is target

    def test_memory_shortage_raises(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        with pytest.raises(AllocationError):
            allocator.allocate_stages("opt", [100 * GB])
        assert allocator.failed_requests == 1

    def test_double_release_rejected(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        res = allocator.reserve_on("opt", small_cluster.gpus[0], GB)
        allocator.release(res)
        with pytest.raises(AllocationError):
            allocator.release(res)

    def test_resize_updates_reservation(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        res = allocator.reserve_on("opt", small_cluster.gpus[0], GB)
        allocator.resize(res, 5 * GB)
        assert res.nbytes == 5 * GB
        assert allocator.total_reserved() == pytest.approx(5 * GB)

    def test_gpus_in_use_counts_distinct(self, sim, small_cluster):
        allocator = GPUAllocator(small_cluster)
        allocator.allocate_stages("opt", [GB, GB])
        allocator.allocate_stages("bert", [GB])
        assert allocator.gpus_in_use() >= 2


class TestHRG:
    def test_recent_events_raise_contention(self, sim, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        server = small_cluster.servers[0]
        base = hrg.contention_score(server, now=0.0)
        hrg.register_scaling_event(server, now=0.0)
        assert hrg.contention_score(server, now=0.0) > base

    def test_contention_decays_over_time(self, sim, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        server = small_cluster.servers[0]
        hrg.register_scaling_event(server, now=0.0)
        early = hrg.contention_score(server, now=1.0)
        late = hrg.contention_score(server, now=50.0)
        assert late < early

    def test_rack_level_contention_spills_to_neighbours(self, sim, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        a, b = small_cluster.servers[0], None
        for server in small_cluster.servers[1:]:
            if server.rack_id == a.rack_id:
                b = server
                break
        assert b is not None
        hrg.register_scaling_event(a, now=0.0)
        assert hrg.contention_score(b, now=0.0) > 0.0

    def test_rank_servers_prefers_quiet_paths(self, sim, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        noisy = small_cluster.servers[0]
        for _ in range(5):
            hrg.register_scaling_event(noisy, now=0.0)
        ranked = hrg.rank_servers(small_cluster.servers, now=0.0)
        assert ranked[-1] is noisy

    def test_cluster_level_events_affect_everyone(self, sim, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster, HRGWeights(server=0, rack=0, cluster=1))
        hrg.register_scaling_event(small_cluster.servers[0], now=0.0)
        for server in small_cluster.servers:
            assert hrg.contention_score(server, now=0.0) > 0.0


class _ReferenceHRG:
    """The HRG before per-instant memoisation: every score re-sums every
    retained event, and deques are trimmed only when queried.  Kept as the
    oracle for :class:`HierarchicalResourceGraph`."""

    def __init__(self, weights: HRGWeights):
        self.weights = weights
        self.server_events: dict[str, deque] = {}
        self.rack_events: dict[str, deque] = {}
        self.cluster_events: deque = deque()

    def register(self, server: Server, now: float) -> None:
        self.server_events.setdefault(server.sid, deque()).append(now)
        self.rack_events.setdefault(server.rack_id, deque()).append(now)
        self.cluster_events.append(now)

    def score(self, server: Server, now: float) -> float:
        w = self.weights
        score = w.server * self._decayed(self.server_events.get(server.sid), now)
        score += w.rack * self._decayed(self.rack_events.get(server.rack_id), now)
        score += w.cluster * self._decayed(self.cluster_events, now)
        return score

    def _decayed(self, events: deque | None, now: float) -> float:
        if not events:
            return 0.0
        horizon = now - 5.0 / self.weights.decay
        while events and events[0] < horizon:
            events.popleft()
        total = 0.0  # left to right, as 3.11's sum() adds floats
        for t in events:
            total += math.exp(-self.weights.decay * (now - t))
        return total


class TestHRGMemo:
    """The per-instant memo must reproduce the re-sum bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_scores_match_reference_resum(self, sim, seed):
        cluster = make_small_cluster(sim, n_servers=6, gpus_per_server=2)
        weights = HRGWeights()
        hrg = HierarchicalResourceGraph(cluster, weights)
        ref = _ReferenceHRG(weights)
        servers = cluster.servers
        racks = {s.rack_id for s in servers}
        assert len(racks) >= 2 and len(racks) < len(servers)  # shared + distinct
        rng = random.Random(seed)
        now, compared = 0.0, 0
        for _ in range(400):
            roll = rng.random()
            if roll < 0.05:
                now += rng.uniform(100.0, 400.0)  # past the 100 s horizon
            elif roll < 0.2:
                now += rng.uniform(5.0, 60.0)  # events age across the horizon
            elif roll < 0.5:
                now += rng.choice([0.0, 0.0, rng.uniform(0.0, 5.0)])
            if rng.random() < 0.35:
                server = rng.choice(servers)
                hrg.register_scaling_event(server, now)
                ref.register(server, now)
            # Repeated same-instant queries, in a shuffled server order.
            for server in rng.sample(servers, len(servers)) * rng.randint(1, 2):
                assert hrg.contention_score(server, now) == ref.score(server, now)
                compared += 1
            ranked = hrg.rank_servers(servers, now)
            assert ranked == sorted(servers, key=lambda s: ref.score(s, now))
        assert compared > 2000

    def test_same_instant_registration_invalidates(self, sim, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        server = small_cluster.servers[0]
        hrg.register_scaling_event(server, now=5.0)
        before = hrg.contention_score(server, now=7.0)
        hrg.register_scaling_event(server, now=7.0)
        assert hrg.contention_score(server, now=7.0) > before

    def test_instances_share_no_memo_state(self, sim, small_cluster):
        a = HierarchicalResourceGraph(small_cluster)
        b = HierarchicalResourceGraph(small_cluster)
        server = small_cluster.servers[0]
        # Sums of the same instant on both: a's must not leak into b's.
        a.register_scaling_event(server, now=1.0)
        b.register_scaling_event(small_cluster.servers[-1], now=1.0)
        score_a = a.contention_score(server, now=1.0)
        score_b = b.contention_score(server, now=1.0)
        assert score_a > score_b
        ref = _ReferenceHRG(b.weights)
        ref.register(small_cluster.servers[-1], 1.0)
        assert score_b == ref.score(server, 1.0)

    def test_unqueried_server_keeps_only_recent_events(self, sim, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        server = small_cluster.servers[0]
        for i in range(10_000):
            hrg.register_scaling_event(server, now=float(i))
        assert 5.0 / hrg.weights.decay == 100.0
        last_100_s = [float(t) for t in range(9899, 10_000)]
        assert list(hrg._server_events[server.sid]) == last_100_s
        assert list(hrg._rack_events[server.rack_id]) == last_100_s
        assert list(hrg._cluster_events) == last_100_s


class TestPlacementScoreOracle:
    """A coordinator scorer prices each server once per instant (HRG sums
    updated in place by same-instant registrations) and each server once
    per capacity epoch; every value must still be the per-GPU formula
    over the re-summing reference, bit for bit."""

    CV = 3.0

    def _reference(self, ref, affinity, model, gpu, now):
        value = 0.0
        value += affinity.score(model, gpu.server, now)
        value -= CONTENTION_WEIGHT * ref.score(gpu.server, now)
        value -= ISOLATION_WEIGHT * multiplexing_penalty(self.CV) * gpu.colocated_model_count
        return value

    @pytest.mark.parametrize("seed", range(6))
    def test_scorer_matches_per_gpu_formula(self, sim, seed):
        cluster = make_small_cluster(sim, n_servers=6, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        hrg = HierarchicalResourceGraph(cluster)
        affinity = AffinityScheduler()
        coordinator = ScalingCoordinator(hrg, affinity, cv_fn=lambda: self.CV)
        ref = _ReferenceHRG(hrg.weights)
        gpus, models = cluster.gpus, ["a", "b", "c"]
        rng = random.Random(seed)
        now, compared, releases = 0.0, 0, 0

        def check(scorer, model):
            nonlocal compared
            for gpu in rng.sample(gpus, len(gpus)) * rng.randint(1, 2):
                assert scorer(gpu) == self._reference(ref, affinity, model, gpu, now)
                compared += 1

        for _ in range(150):
            roll = rng.random()
            if roll < 0.05:
                now += rng.uniform(100.0, 300.0)  # past the 100 s horizon
            elif roll < 0.3:
                now += rng.uniform(0.5, 30.0)
            # else: another operation at the same instant
            model = rng.choice(models)
            if rng.random() < 0.5:
                # A deploy's scaling traffic, as ReplicaFactory records it.
                placed = rng.sample(gpus, rng.randint(1, 3))
                coordinator.record_scaling(model, placed, now)
                for server in dict.fromkeys(g.server for g in placed):
                    ref.register(server, now)
            if rng.random() < 0.3:
                # Colocations move the per-GPU isolation term.
                gpu = rng.choice(gpus)
                if gpu.free_memory > 2 * GB:
                    allocator.reserve_on(rng.choice(models), gpu, GB, allow_same_model=True)
            overfull = None
            if rng.random() < 0.25:
                # A GPU pushed past full by background load, holding 1 GB
                # of a stage: Eq. 13 does not count it as free.
                overfull = rng.choice(gpus)
                held = allocator.reserve_on("lender", overfull, GB, allow_same_model=True)
                overfull.background_mem += overfull.free_memory + GB
            scorer = coordinator.scorer(model, now)
            check(scorer, model)
            if overfull is not None:
                # A release inside the scorer's life frees it again.
                allocator.release(held)
                releases += 1
                check(scorer, model)
                overfull.background_mem = 0.0
        assert compared > 3000 and releases > 20


class TestPlacementScoringCounts:
    """The seed-0 ``azure-replay-2019`` quick FlexPipe cell (220 tenants)
    evaluated ``_decayed`` 11,294 times and ``contention_score`` 14,847
    times when every same-instant registration dropped the level sums and
    every GPU priced its server.  Sums updated in place and one server
    part per scorer leave 788 and 9,172; the counters live here, not in
    ``src/``."""

    def test_azure_fleet_cell(self, monkeypatch):
        from repro.scenarios.driver import ScenarioCase, ScenarioDriver
        from repro.scenarios.library import get_scenario

        counts = Counter()
        for name in ("_decayed", "contention_score"):
            method = getattr(HierarchicalResourceGraph, name)

            def counted(self, *args, _method=method, _name=name):
                counts[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(HierarchicalResourceGraph, name, counted)
        spec = get_scenario("azure-replay-2019").quick()
        ScenarioDriver(ScenarioCase(spec, "FlexPipe", 0)).run()
        assert counts == {"_decayed": 788, "contention_score": 9172}
