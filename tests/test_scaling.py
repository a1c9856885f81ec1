"""Tests for warm cache, affinity, Eq. 11/12 decisions, coordinator, autoscaler."""

from __future__ import annotations

import pytest

from repro.cluster.hrg import HierarchicalResourceGraph
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica
from repro.scaling.affinity import AffinityScheduler, AffinityWeights
from repro.scaling.coordinator import ScalingCoordinator
from repro.scaling.decision import scaling_granularity, slo_feasible_stages
from repro.scaling.warm_cache import HostParamCache
from repro.transfer.links import GB


class TestHostParamCache:
    def test_put_then_full_coverage(self, small_cluster, llama_profile):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        n = len(llama_profile.graph)
        nbytes = llama_profile.graph.param_bytes(0, n // 2)
        assert cache.put(server, "LLAMA2-7B", 0, n // 2, nbytes, now=0.0)
        covered = cache.coverage(server, llama_profile, 0, n // 2)
        assert covered == pytest.approx(nbytes)

    def test_partial_overlap_coverage(self, small_cluster, llama_profile):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        n = len(llama_profile.graph)
        cache.put(server, "LLAMA2-7B", 0, n // 2, llama_profile.graph.param_bytes(0, n // 2), 0.0)
        # Ask for a range that half-overlaps the cached entry.
        covered = cache.coverage(server, llama_profile, n // 4, 3 * n // 4)
        expected = llama_profile.graph.param_bytes(n // 4, n // 2)
        assert covered == pytest.approx(expected)

    def test_merged_stage_warm_from_fine_pieces(self, small_cluster, llama_profile):
        """§5/§7 together: a merged stage reuses the pieces its fine-grained
        predecessors cached."""
        cache = HostParamCache()
        server = small_cluster.servers[0]
        n = len(llama_profile.graph)
        quarter = n // 4
        for i in range(4):
            lo, hi = i * quarter, (i + 1) * quarter
            cache.put(server, "LLAMA2-7B", lo, hi, llama_profile.graph.param_bytes(lo, hi), 0.0)
        covered = cache.coverage(server, llama_profile, 0, 4 * quarter)
        assert covered == pytest.approx(llama_profile.graph.param_bytes(0, 4 * quarter))

    def test_wrong_model_not_covered(self, small_cluster, llama_profile, opt_profile):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        cache.put(server, "OPT-66B", 0, 10, GB, 0.0)
        assert cache.coverage(server, llama_profile, 0, 10) == 0.0

    def test_lru_eviction_respects_host_memory(self, small_cluster, llama_profile):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        server.host_memory = 10 * GB
        assert cache.put(server, "LLAMA2-7B", 0, 5, 6 * GB, now=0.0)
        assert cache.put(server, "LLAMA2-7B", 5, 10, 6 * GB, now=1.0)  # evicts first
        assert cache.entry_count(server) == 1
        assert cache.coverage(server, llama_profile, 0, 5) == 0.0

    def test_oversized_entry_rejected(self, small_cluster):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        assert not cache.put(server, "m", 0, 1, 10_000 * GB, now=0.0)

    def test_covered_entry_refreshes_not_duplicates(self, small_cluster):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        cache.put(server, "m", 0, 10, GB, now=0.0)
        cache.put(server, "m", 2, 8, 0.5 * GB, now=1.0)  # already covered
        assert cache.entry_count(server) == 1


class TestAffinity:
    def test_recent_host_ranks_first(self, small_cluster):
        sched = AffinityScheduler()
        warm, cold = small_cluster.servers[0], small_cluster.servers[1]
        sched.record_placement("m", warm, now=0.0)
        ranked = sched.rank("m", [cold, warm], now=1.0)
        assert ranked[0] is warm

    def test_temporal_decay_erodes_affinity(self, small_cluster):
        sched = AffinityScheduler(AffinityWeights(decay=1.0))
        server = small_cluster.servers[0]
        sched.record_placement("m", server, now=0.0)
        fresh = sched.score("m", server, now=0.1)
        stale = sched.score("m", server, now=50.0)
        assert stale < fresh

    def test_gpu_availability_term(self, small_cluster):
        sched = AffinityScheduler()
        roomy, tight = small_cluster.servers[0], small_cluster.servers[1]
        for gpu in tight.gpus:
            gpu.reserve("bg", 79.5 * GB)
        assert sched.score("m", roomy, 0.0, min_free_bytes=GB) > sched.score(
            "m", tight, 0.0, min_free_bytes=GB
        )

    def test_unknown_server_scores_on_availability_only(self, small_cluster):
        sched = AffinityScheduler(AffinityWeights(w_g=0.0))
        assert sched.score("m", small_cluster.servers[0], now=0.0) == 0.0


class TestScalingDecisions:
    def test_eq11_calm_system_scales_coarse(self):
        assert scaling_granularity(cv=0.2, queue_length=0) <= 2

    def test_eq11_bursty_congested_scales_fine(self):
        m = scaling_granularity(cv=4.0, queue_length=512)
        assert m >= 24  # near G_max

    def test_eq11_monotone_in_pressure(self):
        values = [
            scaling_granularity(cv, q)
            for cv, q in [(0.5, 10), (1.0, 60), (2.0, 150), (4.0, 400)]
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_eq11_invalid_gmax(self):
        with pytest.raises(ValueError):
            scaling_granularity(1.0, 1, g_max=0)

    def test_eq12_backlog_drives_units(self):
        # 100 queued, 5 req/s per unit, 10 s budget after 2 s init:
        # each unit clears 50 requests in the budget -> 2 units.
        assert slo_feasible_stages(12.0, 2.0, 5.0, 100) == 2
        # Halving the budget doubles the requirement.
        assert slo_feasible_stages(7.0, 2.0, 5.0, 100) == 4

    def test_eq12_no_backlog_no_expansion(self):
        assert slo_feasible_stages(10.0, 1.0, 5.0, 0) == 0

    def test_eq12_unmeetable_returns_sentinel(self):
        assert slo_feasible_stages(5.0, 6.0, 5.0, 10) == 10**6

    def test_eq12_rejects_zero_throughput(self):
        with pytest.raises(ValueError):
            slo_feasible_stages(10.0, 1.0, 0.0, 10)


class TestCoordinator:
    def test_scorer_penalises_contended_servers(self, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        coordinator = ScalingCoordinator(hrg, AffinityScheduler())
        busy_server = small_cluster.servers[0]
        for _ in range(5):
            hrg.register_scaling_event(busy_server, now=0.0)
        scorer = coordinator.scorer("m", now=0.0)
        busy_gpu = busy_server.gpus[0]
        quiet_gpu = small_cluster.servers[-1].gpus[0]
        assert scorer(quiet_gpu) > scorer(busy_gpu)

    def test_scorer_prefers_warm_servers(self, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        affinity = AffinityScheduler()
        coordinator = ScalingCoordinator(hrg, affinity)
        warm_server = small_cluster.servers[0]
        affinity.record_placement("m", warm_server, now=0.0)
        scorer = coordinator.scorer("m", now=0.1)
        assert scorer(warm_server.gpus[0]) > scorer(small_cluster.servers[-1].gpus[0])

    def test_isolation_penalty_under_bursty_cv(self, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        coordinator = ScalingCoordinator(hrg, AffinityScheduler(), cv_fn=lambda: 4.0)
        shared = small_cluster.gpus[0]
        shared.reserve("x", GB, model="other")
        scorer = coordinator.scorer("m", now=0.0)
        assert scorer(small_cluster.gpus[1]) > scorer(shared)

    def test_ablation_flags_disable_terms(self, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        affinity = AffinityScheduler()
        coordinator = ScalingCoordinator(
            hrg, affinity, use_hrg=False, use_affinity=False
        )
        affinity.record_placement("m", small_cluster.servers[0], now=0.0)
        hrg.register_scaling_event(small_cluster.servers[1], now=0.0)
        scorer = coordinator.scorer("m", now=0.0)
        assert scorer(small_cluster.servers[0].gpus[0]) == scorer(
            small_cluster.servers[1].gpus[0]
        )

    def test_record_scaling_touches_each_server_once(self, small_cluster):
        hrg = HierarchicalResourceGraph(small_cluster)
        coordinator = ScalingCoordinator(hrg, AffinityScheduler())
        server = small_cluster.servers[0]
        coordinator.record_scaling("m", list(server.gpus), now=0.0)
        assert hrg.events_registered == 1


class TestAutoscalerEffectiveCapacity:
    """The capacity estimate must price in per-replica *effective* batch:
    a degraded fleet (halved batches under fragmentation) used to be
    valued at ``plan.max_batch``, suppressing burst scale-outs exactly
    when capacity was most impaired (ROADMAP open item)."""

    def _make_scaler(self, ctx, llama_profile, router):
        from types import SimpleNamespace

        from repro.metrics.collector import MetricsCollector
        from repro.pipeline.replica import ReplicaState
        from repro.refactoring.monitor import WorkloadMonitor
        from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig

        # 2-stage rung: a GPU hosts at most one stage of a given model, so
        # the small cluster fits several replicas with room to spare.
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        plan = ladder.plan(2)
        deployed = []

        def deploy(profile, p, *, wait_time=0.0):
            # Record the scale-out; no real allocation (the test's fleet
            # should be the only occupant of the small cluster).
            deployed.append(p)
            return SimpleNamespace(state=ReplicaState.LOADING)

        scaler = Autoscaler(
            ctx.sim,
            router,
            WorkloadMonitor(),
            llama_profile,
            MetricsCollector("test"),
            deploy,
            lambda r: None,
            lambda cv, queue: plan,
            AutoscalerConfig(max_replicas=16),
        )
        return scaler, plan, deployed

    def _replica(self, ctx, profile, plan, batch):
        mems = plan.memory_per_stage(1, profile.spec.kv_bytes_per_request)
        reservations = ctx.allocator.allocate_stages(profile.spec.name, mems)
        return PipelineReplica(
            ctx.sim,
            profile,
            plan,
            reservations,
            batcher_config=BatcherConfig(max_batch=batch, max_wait=0.01),
            on_request_complete=lambda r: None,
        )

    def test_degraded_replica_valued_below_plan_estimate(self, ctx, llama_profile):
        from repro.pipeline.router import ModelRouter

        router = ModelRouter(ctx.sim, "LLAMA2-7B")
        scaler, plan, _ = self._make_scaler(ctx, llama_profile, router)
        healthy = self._replica(ctx, llama_profile, plan, plan.max_batch)
        degraded = self._replica(
            ctx, llama_profile, plan, max(plan.max_batch // 4, 1)
        )
        assert scaler.replica_capacity(healthy) == scaler.replica_throughput(plan)
        assert scaler.replica_capacity(degraded) < scaler.replica_capacity(healthy)

    def test_degraded_fleet_triggers_burst_scale_out(self, ctx, llama_profile):
        """The same backlog that a healthy fleet absorbs must trigger a
        scale-out once the fleet is degraded — with the old plan-based
        estimate both cases looked identical and neither scaled."""
        from repro.pipeline.router import ModelRouter

        outcomes = {}
        for label, batch_of in (
            ("healthy", lambda plan: plan.max_batch),
            ("degraded", lambda plan: max(plan.max_batch // 8, 1)),
        ):
            router = ModelRouter(ctx.sim, "LLAMA2-7B")
            scaler, plan, deployed = self._make_scaler(ctx, llama_profile, router)
            for _ in range(2):
                replica = self._replica(ctx, llama_profile, plan, batch_of(plan))
                replica.activate()
                router.add(replica)
            cfg = scaler.config
            capacity = {
                "healthy": 2 * scaler.replica_throughput(plan),
                "degraded": 2
                * scaler.replica_throughput(plan, batch=max(plan.max_batch // 8, 1)),
            }
            # A backlog between the two burst thresholds: above the
            # degraded fleet's clearing capacity, below the healthy one's.
            lo = cfg.queue_factor * max(capacity["degraded"] * cfg.interval, 1.0)
            hi = cfg.queue_factor * max(capacity["healthy"] * cfg.interval, 1.0)
            assert lo < hi, "degraded fleet must have lower capacity"
            queue = int(lo) + 1
            assert queue <= hi
            router.pending.extend(object() for _ in range(queue))
            scaler.tick()
            outcomes[label] = len(deployed)
        assert outcomes["healthy"] == 0
        assert outcomes["degraded"] >= 1


class TestAutoscalerShareCap:
    """Scale-out desire is clamped to the tenant's share-cap headroom, so
    a capped tenant never churns the allocator with deploys the cap is
    guaranteed to refuse (QoS resource arbitration)."""

    def _make_scaler(self, ctx, llama_profile, min_replicas=4):
        from types import SimpleNamespace

        from repro.metrics.collector import MetricsCollector
        from repro.pipeline.replica import ReplicaState
        from repro.pipeline.router import ModelRouter
        from repro.refactoring.monitor import WorkloadMonitor
        from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig

        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        plan = ladder.plan(2)
        deployed = []

        def deploy(profile, p, *, wait_time=0.0):
            deployed.append(p)
            return SimpleNamespace(state=ReplicaState.LOADING)

        scaler = Autoscaler(
            ctx.sim,
            ModelRouter(ctx.sim, "LLAMA2-7B"),
            WorkloadMonitor(),
            llama_profile,
            MetricsCollector("test"),
            deploy,
            lambda r: None,
            lambda cv, queue: plan,
            AutoscalerConfig(min_replicas=min_replicas, max_replicas=16),
        )
        return scaler, plan, deployed

    def _replica_bytes(self, scaler, plan):
        # The clamp sizes replicas at the degradation floor batch — the
        # smallest deploy the factory would actually accept.
        from repro.cluster.allocator import DEGRADE_FLOOR

        batch = max(min(plan.max_batch, DEGRADE_FLOOR), 1)
        return sum(
            plan.memory_per_stage(
                batch, scaler.profile.spec.kv_bytes_per_request
            )
        )

    def test_scale_out_clamped_to_headroom(self, ctx, llama_profile):
        scaler, plan, deployed = self._make_scaler(ctx, llama_profile)
        scaler.share_headroom = (
            lambda: 2.5 * self._replica_bytes(scaler, plan)
        )
        scaler.tick()  # wants min_replicas=4, headroom hosts only 2
        assert len(deployed) == 2

    def test_uncapped_hook_changes_nothing(self, ctx, llama_profile):
        import math

        scaler, _, deployed = self._make_scaler(ctx, llama_profile)
        scaler.share_headroom = lambda: math.inf
        scaler.tick()
        assert len(deployed) == 4

    def test_default_behaviour_without_hook(self, ctx, llama_profile):
        scaler, _, deployed = self._make_scaler(ctx, llama_profile)
        scaler.tick()
        assert len(deployed) == 4

    def test_zero_headroom_never_forces_scale_in(self, ctx, llama_profile):
        """The cap blocks growth; it must not manufacture scale-in."""
        from repro.pipeline.replica import ReplicaState

        scaler, plan, deployed = self._make_scaler(ctx, llama_profile, min_replicas=1)
        from types import SimpleNamespace

        active = [
            SimpleNamespace(
                state=ReplicaState.ACTIVE,
                accepting=True,
                plan=plan,
                max_batch=plan.max_batch,
                queue_length=0,
                activated_at=0.0,
            )
            for _ in range(2)
        ]
        scaler.router.replicas.extend(active)
        scaler.share_headroom = lambda: 0.0
        released = []
        scaler.release_replica = released.append
        scaler.tick()
        assert deployed == []
        # desired fell to min_replicas, but scale-in still follows the
        # idle-window policy (first low tick never reclaims).
        assert released == []


class TestAutoscalerBlockedEpisodes:
    """A blocked tenant retries every tick but records one
    ``alloc_blocked`` event per episode, so retained events do not grow
    with the retry rate."""

    def test_one_event_per_blocked_episode(self, ctx, llama_profile):
        from types import SimpleNamespace

        from repro.cluster.allocator import AllocationError
        from repro.metrics.collector import MetricsCollector
        from repro.pipeline.replica import ReplicaState
        from repro.pipeline.router import ModelRouter
        from repro.refactoring.monitor import WorkloadMonitor
        from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig

        plan = GranularityLadder(llama_profile, stage_counts=(2, 4)).plan(2)
        blocked = [True]
        attempts, loading = [], []

        def deploy(profile, p, *, wait_time=0.0):
            attempts.append(wait_time)
            if blocked[0]:
                raise AllocationError("no room")
            loading.append(SimpleNamespace(state=ReplicaState.LOADING))
            return loading[-1]

        metrics = MetricsCollector("test")
        Autoscaler(
            ctx.sim,
            ModelRouter(ctx.sim, "LLAMA2-7B"),
            WorkloadMonitor(),
            llama_profile,
            metrics,
            deploy,
            lambda r: None,
            lambda cv, queue: plan,
            AutoscalerConfig(min_replicas=1),
        )

        def blocked_events():
            return [e for e in metrics.events if e.kind == "alloc_blocked"]

        ctx.sim.run(until=5.0)  # every tick retries and fails
        assert len(attempts) >= 5
        assert len(blocked_events()) == 1
        # The episode's wait still grows across retries.
        assert attempts[-1] > attempts[1] > 0.0
        blocked[0] = False
        ctx.sim.run(until=6.0)  # the deploy lands: the episode closes
        assert len(loading) == 1
        loading[0].state = ReplicaState.RELEASED  # lost before activating
        blocked[0] = True
        ctx.sim.run(until=10.0)  # a second episode
        times = [e.time for e in blocked_events()]
        assert len(times) == 2 and times[1] > 6.0
