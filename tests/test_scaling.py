"""Tests for warm cache, affinity, Eq. 11/12 decisions, coordinator, autoscaler."""

from __future__ import annotations

import math

import pytest

from repro.cluster.hrg import HierarchicalResourceGraph
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica
from repro.scaling.affinity import W_G, AffinityScheduler
from repro.scaling.autoscaler import QUEUE_FACTOR, TARGET_UTILIZATION
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
        sched = AffinityScheduler()
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
        sched = AffinityScheduler()
        server = small_cluster.servers[0]
        expected = W_G * len(server.free_gpus())
        assert sched.score("m", server, now=0.0) == expected


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

    @pytest.fixture(autouse=True)
    def _bare_factory(self, bare_factory):
        self.bare_factory = bare_factory

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

        metrics = MetricsCollector("test")
        scaler = Autoscaler(
            ctx.sim,
            router,
            WorkloadMonitor(),
            llama_profile,
            metrics,
            deploy,
            lambda r: None,
            lambda cv, queue: plan,
            AutoscalerConfig(max_replicas=16),
            factory=self.bare_factory(ctx, metrics),
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
            lo = QUEUE_FACTOR * max(capacity["degraded"] * cfg.interval, 1.0)
            hi = QUEUE_FACTOR * max(capacity["healthy"] * cfg.interval, 1.0)
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

    @pytest.fixture(autouse=True)
    def _bare_factory(self, bare_factory):
        self.bare_factory = bare_factory

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

        metrics = MetricsCollector("test")
        scaler = Autoscaler(
            ctx.sim,
            ModelRouter(ctx.sim, "LLAMA2-7B"),
            WorkloadMonitor(),
            llama_profile,
            metrics,
            deploy,
            lambda r: None,
            lambda cv, queue: plan,
            AutoscalerConfig(min_replicas=min_replicas, max_replicas=16),
            factory=self.bare_factory(ctx, metrics),
        )
        return scaler, plan, deployed

    def _replica_bytes(self, scaler, plan):
        # The clamp sizes replicas at the degradation floor batch — the
        # smallest deploy the factory would actually accept.
        from repro.pipeline.sizing import DEGRADE_FLOOR

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

    def test_one_event_per_blocked_episode(self, ctx, llama_profile, bare_factory):
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
        router = ModelRouter(ctx.sim, "LLAMA2-7B")
        Autoscaler(
            ctx.sim,
            router,
            WorkloadMonitor(),
            llama_profile,
            metrics,
            deploy,
            lambda r: None,
            lambda cv, queue: plan,
            AutoscalerConfig(min_replicas=1),
            factory=bare_factory(ctx, metrics),
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
        router.remove(loading[0])  # as the factory's teardown does
        blocked[0] = True
        ctx.sim.run(until=10.0)  # a second episode
        times = [e.time for e in blocked_events()]
        assert len(times) == 2 and times[1] > 6.0


class _ScriptedMonitor:
    """A WorkloadMonitor stand-in whose arrival window the test sets."""

    def __init__(self):
        self.rate = 0.0
        self.count = 0
        self.total_observed = 0
        self.sleepers = ()

    def cv(self, now):
        return 0.0

    def arrival_rate(self, now):
        return self.rate

    def window_count(self, now):
        return self.count

    def arrive(self):
        self.rate, self.count = 1.0, 5
        self.total_observed += 5
        for mark in self.sleepers:
            mark()

    def go_quiet(self):
        self.rate, self.count = 0.0, 0


def _scripted_scaler(
    bare_factory, ctx, profile, deploy, plan_for, *, monitor=None, **config
):
    from repro.metrics.collector import MetricsCollector
    from repro.pipeline.router import ModelRouter
    from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig

    metrics = MetricsCollector("test")
    return Autoscaler(
        ctx.sim,
        ModelRouter(ctx.sim, profile.spec.name),
        monitor or _ScriptedMonitor(),
        profile,
        metrics,
        deploy,
        lambda r: None,
        plan_for,
        AutoscalerConfig(**config),
        factory=bare_factory(ctx, metrics),
    )


def _blocked_events(scaler):
    return [e for e in scaler.metrics.events if e.kind == "alloc_blocked"]


class TestAutoscalerIdleFastPath:
    """A fully idle scale-to-zero tenant returns before pricing a plan."""

    @pytest.fixture(autouse=True)
    def _bare_factory(self, bare_factory):
        self.bare_factory = bare_factory

    def _scaler(self, ctx, llama_profile, min_replicas=0):
        plan = GranularityLadder(llama_profile, stage_counts=(2, 4)).plan(2)
        planned = []

        def plan_for(cv, queue):
            planned.append(queue)
            return plan

        def deploy(profile, p, *, wait_time=0.0):
            raise AssertionError("an idle tenant never deploys")

        scaler = _scripted_scaler(
            self.bare_factory, ctx, llama_profile, deploy, plan_for,
            min_replicas=min_replicas,
        )
        scaler.stop()  # ticks are driven by hand
        return scaler, plan, planned

    def test_idle_tenant_skips_the_decision(self, ctx, llama_profile):
        scaler, _, planned = self._scaler(ctx, llama_profile)
        scaler._low_since = 3.0
        scaler.tick()
        assert planned == []
        assert scaler._low_since is None

    @pytest.mark.parametrize(
        "busy", ["floor", "arrivals", "pending", "loading", "active", "qos"]
    )
    def test_any_activity_takes_the_full_body(self, ctx, llama_profile, busy):
        from types import SimpleNamespace

        from repro.pipeline.replica import ReplicaState

        scaler, plan, planned = self._scaler(
            ctx, llama_profile, min_replicas=1 if busy == "floor" else 0
        )
        scaler.deploy = lambda profile, p, *, wait_time=0.0: SimpleNamespace(
            state=ReplicaState.LOADING
        )
        if busy == "arrivals":
            scaler.monitor.count = 1
        elif busy == "pending":
            scaler.router.pending.append(object())
        elif busy == "loading":
            scaler.loading.append(SimpleNamespace(state=ReplicaState.LOADING))
        elif busy == "active":
            scaler.router.replicas.append(
                SimpleNamespace(
                    accepting=True,
                    plan=plan,
                    max_batch=plan.max_batch,
                    queue_length=0,
                    activated_at=0.0,
                )
            )
        elif busy == "qos":
            scaler.slo_pressure = lambda: 0.0
        scaler.tick()
        assert len(planned) == 1


class TestAutoscalerCertifiedPark:
    """A tenant whose scale-out the allocator certified impossible stops
    calling deploy until the certificate lapses or the plan changes."""

    @pytest.fixture(autouse=True)
    def _bare_factory(self, bare_factory):
        self.bare_factory = bare_factory

    def _blocked(self, ctx, llama_profile):
        from types import SimpleNamespace

        from repro.pipeline.sizing import degrade_until_fit
        from repro.pipeline.replica import ReplicaState

        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        allocator = ctx.allocator
        # 3 GB left everywhere: below every stage of both rungs.
        fills = [
            allocator.reserve_on("fill", gpu, gpu.free_memory - 3 * GB)
            for gpu in ctx.cluster.gpus
        ]
        wanted = [ladder.plan(2)]
        calls = []

        def deploy(profile, plan, *, wait_time=0.0):
            # ReplicaFactory.deploy's allocation path: degrade to the floor.
            calls.append((ctx.sim.now, plan.n_stages))
            kv = profile.spec.kv_bytes_per_request
            degrade_until_fit(
                plan.max_batch,
                lambda b: allocator.allocate_stages(
                    profile.spec.name, plan.memory_per_stage(b, kv)
                ),
            )
            return SimpleNamespace(state=ReplicaState.LOADING)

        scaler = _scripted_scaler(
            self.bare_factory, ctx, llama_profile, deploy,
            lambda cv, queue: wanted[0], min_replicas=1,
        )
        return SimpleNamespace(
            scaler=scaler, calls=calls, fills=fills, ladder=ladder, wanted=wanted
        )

    def test_parked_tenant_makes_no_deploy_call(self, ctx, llama_profile):
        b = self._blocked(ctx, llama_profile)
        ctx.sim.run(until=10.0)  # twenty ticks
        assert len(b.calls) == 1
        assert b.scaler._parked is not None
        assert len(_blocked_events(b.scaler)) == 1
        assert b.scaler._blocked_since == b.calls[0][0]

    def test_release_causes_exactly_one_retry(self, ctx, llama_profile):
        b = self._blocked(ctx, llama_profile)
        ctx.sim.run(until=5.0)
        # One whole GPU comes back: the epoch moves, yet a 2-stage plan
        # still cannot place, so the retry re-parks.
        ctx.allocator.release(b.fills[0])
        ctx.sim.run(until=10.0)
        assert len(b.calls) == 2
        assert 5.0 < b.calls[1][0] <= 5.5
        assert len(_blocked_events(b.scaler)) == 1

    def test_plan_change_unparks(self, ctx, llama_profile):
        b = self._blocked(ctx, llama_profile)
        ctx.sim.run(until=5.0)
        b.wanted[0] = b.ladder.plan(4)
        ctx.sim.run(until=10.0)
        assert [n for _, n in b.calls] == [2, 4]
        assert b.scaler._parked[0] is b.ladder.plan(4)

    def test_parked_tick_runs_the_on_park_hook(self, ctx, llama_profile):
        b = self._blocked(ctx, llama_profile)
        parked = []
        b.scaler.on_park = lambda: parked.append(ctx.sim.now)
        ctx.sim.run(until=5.0)
        # Tick 0.5 deploys; the nine later ticks are parked.
        assert len(b.calls) == 1 and len(parked) == 9

    def test_uncertified_failures_retry_every_tick(self, ctx, llama_profile):
        from repro.cluster.allocator import AllocationError

        attempts = []

        def deploy(profile, plan, *, wait_time=0.0):
            attempts.append(wait_time)
            raise AllocationError("no room")  # no certificate attached

        plan = GranularityLadder(llama_profile, stage_counts=(2, 4)).plan(2)
        _scripted_scaler(
            self.bare_factory, ctx, llama_profile, deploy, lambda cv, q: plan,
            min_replicas=1,
        )
        ctx.sim.run(until=5.0)
        assert len(attempts) == 10


class TestAutoscalerBlockedEpisodeEnds:
    """A blocked episode ends when demand stops exceeding the fleet, so a
    later first-try deploy is charged no wait and a later failure opens a
    new episode."""

    @pytest.fixture(autouse=True)
    def _bare_factory(self, bare_factory):
        self.bare_factory = bare_factory

    def _scaler(self, ctx, llama_profile):
        from types import SimpleNamespace

        from repro.cluster.allocator import AllocationError
        from repro.pipeline.replica import ReplicaState

        plan = GranularityLadder(llama_profile, stage_counts=(2, 4)).plan(2)
        blocked = [True]
        waits = []

        def deploy(profile, p, *, wait_time=0.0):
            waits.append(wait_time)
            if blocked[0]:
                raise AllocationError("no room")
            return SimpleNamespace(state=ReplicaState.LOADING)

        monitor = _ScriptedMonitor()
        scaler = _scripted_scaler(
            self.bare_factory, ctx, llama_profile, deploy, lambda cv, q: plan,
            monitor=monitor, min_replicas=0,
        )
        return scaler, monitor, blocked, waits

    def test_first_try_after_quiet_spell_waited_for_nothing(self, ctx, llama_profile):
        scaler, monitor, blocked, waits = self._scaler(ctx, llama_profile)
        monitor.arrive()
        ctx.sim.run(until=3.0)  # blocked from the first tick
        assert scaler._blocked_since == 0.5
        monitor.go_quiet()
        ctx.sim.run(until=20.0)  # demand fell to the (empty) fleet
        assert scaler._blocked_since is None
        blocked[0] = False
        monitor.arrive()
        ctx.sim.run(until=20.5)
        assert waits[-1] == 0.0

    def test_new_failure_opens_a_new_episode(self, ctx, llama_profile):
        scaler, monitor, _, _ = self._scaler(ctx, llama_profile)
        monitor.arrive()
        ctx.sim.run(until=3.0)
        monitor.go_quiet()
        ctx.sim.run(until=20.0)
        monitor.arrive()
        ctx.sim.run(until=20.5)
        assert [e.time for e in _blocked_events(scaler)] == [0.5, 20.5]


def _polling_autoscaler():
    """The autoscaler before the control sweep, the floor rule and the
    certified park: one periodic process per tenant, no tenant ever
    sleeps, every tick prices a plan and every blocked tick calls
    deploy."""
    from repro.cluster.allocator import AllocationError
    from repro.metrics.collector import ScalingEvent
    from repro.pipeline.replica import ReplicaState
    from repro.refactoring.granularity import instance_count
    from repro.scaling.autoscaler import Autoscaler
    from repro.simulation.processes import PeriodicProcess

    class OwnProcess:
        """Stands in for the system's sweep: a process per tenant."""

        def join(self, scaler):
            self.process = PeriodicProcess(
                scaler.sim, scaler.config.interval, scaler.tick
            )

            return 0

        def leave(self, rank):
            self.process.stop()

        def mark(self, rank):
            """Nobody sleeps: every tick runs."""

    class PollingAutoscaler(Autoscaler):
        def __init__(self, *args, sweep=None, **kwargs):
            super().__init__(*args, sweep=OwnProcess(), **kwargs)

        def tick(self):
            now = self.sim.now
            cfg = self.config
            self.loading = [
                r for r in self.loading if r.state is ReplicaState.LOADING
            ]
            active = self.router.active_replicas
            queue = self.router.total_queue
            cv = self.monitor.cv(now)
            rate = self.monitor.arrival_rate(now)
            plan = self.plan_for(cv, queue)
            per_replica = self.replica_throughput(plan)
            pressure = self.slo_pressure() if self.slo_pressure is not None else 0.0
            effective_util = TARGET_UTILIZATION / (
                (1.0 + cfg.cv_headroom * cv) * (1.0 + pressure)
            )
            desired = instance_count(
                rate / max(effective_util, 1e-6), per_replica, plan.n_stages
            )
            capacity_now = sum(self.replica_capacity(r) for r in active)
            if queue > QUEUE_FACTOR * max(capacity_now * cfg.interval, 1.0):
                backlog_units = math.ceil(
                    queue / max(per_replica * cfg.slo_deadline * 0.5, 1.0)
                )
                desired = max(desired, len(active) + backlog_units)
            if cfg.min_replicas == 0 and rate <= 0.0 and queue == 0:
                desired = 0
            desired = min(max(desired, cfg.min_replicas), cfg.max_replicas)
            total = len(active) + len(self.loading)
            if self.share_headroom is not None and desired > total:
                fit = self._replicas_within_headroom(plan)
                desired = min(desired, max(total + fit, total))
            if desired > total:
                self._scale_out(desired - total, plan, now)
                return
            self._blocked_since = None  # the blocked episode ends
            if desired < len(active) and queue == 0:
                self._maybe_scale_in(active, desired, now)
            else:
                self._low_since = None

        def _scale_out(self, n, plan, now):
            if now - self._last_scale_out < self.config.scale_out_cooldown:
                return
            wait = (
                now - self._blocked_since if self._blocked_since is not None else 0.0
            )
            for _ in range(n):
                try:
                    replica = self.deploy(self.profile, plan, wait_time=wait)
                except AllocationError:
                    if self._blocked_since is None:
                        self._blocked_since = now
                        self.metrics.on_event(
                            ScalingEvent(
                                time=now, kind="alloc_blocked", detail=plan.model_name
                            )
                        )
                    return
                self.loading.append(replica)
            self._blocked_since = None
            self._last_scale_out = now

    return PollingAutoscaler


def _polling_control_tick(self):
    """FlexPipe's refactoring loop before live sets: every tenant visited
    every control interval."""
    from repro.core.flexpipe import REFACTOR_DWELL, SWITCH_MARGIN

    now = self.sim.now
    for state in self._qos_ordered_states():
        if not self.enable_refactoring:
            continue
        monitor = self.monitors[state.spec.name]
        cv = monitor.cv(now)
        dwell = REFACTOR_DWELL
        pressure = self.autoscalers[state.spec.name].slo_pressure
        if pressure is not None and pressure() > 0:
            dwell *= 0.5
        if (
            monitor.window_count(now) >= 4
            and now - state.last_target_change >= dwell
        ):
            target = state.policy.select(cv)
            if target != state.current_stages:
                scores = state.policy.scores(cv)
                if scores[target] >= SWITCH_MARGIN * scores[state.current_stages]:
                    state.current_stages = target
                    state.last_target_change = now
        if not self._share_allows_refactor(state):
            continue
        router = self.routers[state.spec.name]
        for replica in router.active_replicas:
            if replica.plan.n_stages != state.current_stages:
                if state.executor.refactor(replica, state.current_stages):
                    break


def _superset_sweep(checks):
    """A sweep that, at every instant, before and after its pass, also
    evaluates every sleeper's wake check (they only read state): each one
    that fires must be due.  ``checks`` counts the evaluations."""
    from repro.scaling.autoscaler import ControlSweep

    class SupersetSweep(ControlSweep):
        def _tick(self):
            self._assert_due()
            super()._tick()
            self._assert_due()

        def _assert_due(self):
            if self._parked:
                self._check_epoch()  # what the pass does first
            for rank in sorted(self._joined):
                wake = self._members[rank]._wake
                if wake is None:
                    continue
                checks["sleepers"] += 1
                assert not wake() or rank in self._due.ranks, (
                    f"member {rank} would wake at t={self.sim.now} "
                    f"but nothing marked it"
                )

    return SupersetSweep


def _resting_checked_control_tick(checks):
    """FlexPipe's loop, asserting before and after each pass that every
    resting tenant's visit would change nothing: fewer than four arrivals
    in its window and every active replica at the target granularity."""
    from repro.core.flexpipe import FlexPipeSystem

    control_tick = FlexPipeSystem._control_tick

    def assert_resting_idle(system):
        if system.qos_tracker is not None or not system.enable_refactoring:
            return
        now = system.sim.now
        for rank, state in enumerate(system._states):
            if rank in system._live.ranks:
                continue
            checks["resting"] += 1
            name = state.spec.name
            assert system.monitors[name].window_count(now) < 4, (name, now)
            assert all(
                r.plan.n_stages == state.current_stages
                for r in system.routers[name].active_replicas
            ), (name, now)

    def checked(self):
        assert_resting_idle(self)
        control_tick(self)
        assert_resting_idle(self)

    return checked


def _report_digest(spec, system, seed):
    """Report hash with ``engine_events`` masked (a sleeping tenant's
    skipped ticks are engine events, and nothing else may move), and the
    system that produced it."""
    import dataclasses
    import hashlib
    import json

    from repro.scenarios.driver import ScenarioCase, ScenarioDriver

    driver = ScenarioDriver(ScenarioCase(spec, system, seed))
    fields = dataclasses.asdict(driver.run())
    fields["engine_events"] = None
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest(), driver.system


def _pinned_binding_caps():
    from pathlib import Path

    from repro.scenarios.spec import ScenarioSpec

    path = Path(__file__).parent / "data" / "chaos-3-binding-caps.json"
    return ScenarioSpec.from_json(path.read_text())


class TestAutoscalerPollingOracle:
    """The control sweep, its sleeping tenants, the floor rule, the
    certified park and FlexPipe's live set change no report: per-tenant
    polling, and a refactoring loop visiting every tenant, produce
    byte-identical reports (engine event counts aside).  The event-driven
    run is checked as it goes: a sleeper whose wake check fires was always
    marked due, and a resting tenant's visit would have changed nothing."""

    @pytest.mark.parametrize(
        "scenario, system, seed",
        [
            # Scale-to-zero churn: idle tenants (FlexPipe) and DistServe's
            # certified-blocked retry storm, whose tenants sleep parked.
            ("coldstart-economy", "FlexPipe", 5),
            ("coldstart-economy", "DistServe", 5),
            # FlexPipe tenants park here, so the on_park hook is covered.
            ("reclamation-storm", "FlexPipe", 0),
            # Hundreds of trace-replayed tenants, most of them idle.
            ("azure-replay-2019", "FlexPipe", 0),
            # Elastic QoS with binding caps: hooks installed mid-set-up.
            ("chaos-3-binding-caps", "FlexPipe", 3),
            ("chaos-3-binding-caps", "DistServe", 3),
            # Tenants asleep at a floor of one lose a replica to a reclaim
            # and wake on the fleet recount alone.
            ("paper-multi-burst", "FlexPipe", 1),
            ("paper-multi-burst", "ServerlessLLM", 1),
            ("paper-multi-burst", "Tetris", 0),
            # Server failures, and scenario scale-outs and drains, around
            # tenants that sleep at their floor until traffic starts.
            ("failure-cascade", "FlexPipe", 0),
            ("failure-cascade", "DistServe", 0),
            ("tenant-churn", "FlexPipe", 0),
            ("tenant-churn", "DistServe", 0),
        ],
    )
    def test_reports_match_the_polling_autoscaler(
        self, monkeypatch, scenario, system, seed
    ):
        import repro.core.serving
        from repro.scenarios.library import get_scenario

        from collections import Counter

        from repro.core.flexpipe import FlexPipeSystem

        if scenario == "chaos-3-binding-caps":
            spec = _pinned_binding_caps()
        else:
            spec = get_scenario(scenario).quick()
        checks = Counter()
        with monkeypatch.context() as patch:
            patch.setattr(
                repro.core.serving, "ControlSweep", _superset_sweep(checks)
            )
            patch.setattr(
                FlexPipeSystem, "_control_tick",
                _resting_checked_control_tick(checks),
            )
            new, _ = _report_digest(spec, system, seed)
        # Tenants slept, so the superset check was not vacuous.
        assert checks["sleepers"] > 0
        polling = _polling_autoscaler()
        monkeypatch.setattr(repro.core.serving, "Autoscaler", polling)
        monkeypatch.setattr(FlexPipeSystem, "_control_tick", _polling_control_tick)
        old, served = _report_digest(spec, system, seed)
        # Every tenant ran the polling autoscaler, so the match is not
        # vacuous.
        assert set(served.autoscalers) == set(served.specs)
        assert all(type(s) is polling for s in served.autoscalers.values())
        assert old == new


class TestControlSweep:
    """One sweep ticks a system's autoscalers; tenants idle at their floor
    and certified-parked tenants sleep until an input of their decision
    moves, then tick at the next grid instant."""

    @pytest.fixture(autouse=True)
    def _bare_factory(self, bare_factory):
        self.bare_factory = bare_factory

    def _scaler(self, sim, profile, plan_for, *, sweep=None, **config):
        from types import SimpleNamespace

        from repro.cluster.cluster import make_small_cluster
        from repro.core.context import ServingContext
        from repro.metrics.collector import MetricsCollector
        from repro.pipeline.replica import ReplicaState
        from repro.pipeline.router import ModelRouter
        from repro.refactoring.monitor import WorkloadMonitor
        from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig
        from repro.simulation.randomness import RandomStreams

        deployed = []

        def deploy(profile, p, *, wait_time=0.0):
            deployed.append(sim.now)
            return SimpleNamespace(state=ReplicaState.LOADING)

        metrics = MetricsCollector("test")
        ctx = ServingContext.create(sim, make_small_cluster(sim), RandomStreams(0))
        scaler = Autoscaler(
            sim,
            ModelRouter(sim, profile.spec.name),
            WorkloadMonitor(),
            profile,
            metrics,
            deploy,
            lambda r: None,
            plan_for,
            AutoscalerConfig(**config),
            sweep=sweep,
            factory=self.bare_factory(ctx, metrics),
        )
        return scaler, _tick_times(scaler), deployed

    def _plan(self, profile):
        return GranularityLadder(profile, stage_counts=(2, 4)).plan(2)

    def test_idle_tenant_sleeps_after_one_tick(self, sim, llama_profile):
        scaler, ticks, _ = self._scaler(
            sim, llama_profile, self._plan(llama_profile), min_replicas=0
        )
        sim.run(until=10.0)
        assert ticks == [0.5]
        assert scaler._wake is not None

    def test_idle_tenants_add_no_events(self, llama_profile):
        from repro.scaling.autoscaler import ControlSweep
        from repro.simulation.engine import Simulator

        events = {}
        for n in (1, 12):
            sim = Simulator()
            sweep = ControlSweep(sim, 0.5)
            for _ in range(n):
                self._scaler(
                    sim, llama_profile, self._plan(llama_profile),
                    sweep=sweep, min_replicas=0,
                )
            sim.run(until=10.0)
            events[n] = sim.events_processed
        assert events[12] == events[1] == 20  # one sweep event per instant

    def test_arrival_wakes_at_the_next_grid_instant(self, sim, llama_profile):
        scaler, ticks, deployed = self._scaler(
            sim, llama_profile, self._plan(llama_profile), min_replicas=0
        )
        sim.schedule_at(3.2, scaler.monitor.observe, 3.2)
        sim.run(until=10.0)
        assert ticks[:2] == [0.5, 3.5]
        assert deployed == [3.5]

    def test_pending_request_wakes(self, sim, llama_profile):
        from types import SimpleNamespace

        scaler, ticks, deployed = self._scaler(
            sim, llama_profile, self._plan(llama_profile), min_replicas=0
        )
        sim.schedule_at(2.2, scaler.router.submit, SimpleNamespace(trace=None))
        sim.run(until=10.0)
        assert ticks[:2] == [0.5, 2.5]
        assert deployed == [2.5]

    def test_scenario_scale_out_wakes(self, ctx):
        """A replica the scenario deploys behind the autoscaler's back
        wakes it at the first grid instant after the replica activates."""
        import numpy as np

        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import LLAMA2_7B
        from repro.scenarios.driver import action_scale_out

        system = FlexPipeSystem(
            ctx, [LLAMA2_7B], initial_replicas=0, min_replicas=0
        )
        scaler = system.autoscalers[LLAMA2_7B.name]
        ticks = _tick_times(scaler)
        outcome = []
        ctx.sim.schedule_at(
            1.2,
            lambda: outcome.append(
                # Seed 1 draws a rung the 12-GPU cluster can place.
                action_scale_out(
                    system, np.random.default_rng(1), model=LLAMA2_7B.name
                )
            ),
        )
        ctx.sim.run(until=60.0)
        assert outcome == ["ok"]
        (replica,) = system.all_replicas()
        activated = replica.activated_at
        assert activated is not None and activated > 1.2
        woke = math.floor(activated / 0.5) * 0.5 + 0.5
        assert ticks[:2] == [0.5, woke]

    def test_floor_tenant_sleeps_after_one_tick(self, sim, llama_profile):
        from types import SimpleNamespace

        from repro.pipeline.replica import ReplicaState

        scaler, ticks, deployed = self._scaler(
            sim, llama_profile, self._plan(llama_profile), min_replicas=1
        )
        scaler.loading.append(SimpleNamespace(state=ReplicaState.LOADING))
        sim.run(until=10.0)
        assert ticks == [0.5]
        assert deployed == []
        assert scaler._wake is not None

    def test_floor_two_sleeps_with_one_loading_one_active(
        self, sim, llama_profile
    ):
        from types import SimpleNamespace

        from repro.pipeline.replica import ReplicaState

        scaler, ticks, deployed = self._scaler(
            sim, llama_profile, self._plan(llama_profile), min_replicas=2
        )
        scaler.router.replicas.append(SimpleNamespace(accepting=True))
        scaler.loading.append(SimpleNamespace(state=ReplicaState.LOADING))
        sim.run(until=10.0)
        assert ticks == [0.5]
        assert deployed == []

    def test_requeued_request_wakes_a_floor_sleeper(self, sim, llama_profile):
        """A request back in the queue without a new arrival wakes the
        tenant: the window stays empty and the fleet is unchanged, so only
        the queue test sees it."""
        from types import SimpleNamespace

        from repro.pipeline.replica import ReplicaState

        scaler, ticks, _ = self._scaler(
            sim, llama_profile, self._plan(llama_profile), min_replicas=1
        )
        scaler.loading.append(SimpleNamespace(state=ReplicaState.LOADING))
        sim.schedule_at(2.2, scaler.router.submit, SimpleNamespace(trace=None))
        sim.run(until=4.0)
        # Queued work keeps every later tick awake.
        assert ticks == [0.5, 2.5, 3.0, 3.5, 4.0]

    def test_release_wakes_a_floor_sleeper_which_redeploys(self, ctx):
        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import LLAMA2_7B

        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
        scaler = system.autoscalers[LLAMA2_7B.name]
        ticks = _tick_times(scaler)
        system.start()
        ctx.sim.run(until=20.0)
        # One loading, then active, replica at a floor of one: asleep.
        assert ticks == [0.5]
        (first,) = system.all_replicas()
        assert first.accepting
        ctx.sim.schedule_at(20.2, system.factory.release, first)
        ctx.sim.run(until=21.0)
        assert ticks == [0.5, 20.5, 21.0]
        replacement = [r for r in system.all_replicas() if r is not first]
        assert len(replacement) == 1
        assert replacement[0].created_at == 20.5
        assert scaler._wake is not None  # asleep again at the floor

    def test_replica_added_behind_its_back_wakes_into_scale_in(self, ctx):
        import numpy as np

        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import LLAMA2_7B
        from repro.scenarios.driver import action_scale_out

        system = FlexPipeSystem(
            ctx, [LLAMA2_7B], initial_replicas=1, scale_in_idle_window=5.0
        )
        scaler = system.autoscalers[LLAMA2_7B.name]
        ticks = _tick_times(scaler)
        system.start()
        outcome = []
        ctx.sim.schedule_at(
            20.2,
            lambda: outcome.append(
                action_scale_out(
                    system, np.random.default_rng(1), model=LLAMA2_7B.name
                )
            ),
        )
        ctx.sim.run(until=120.0)
        assert outcome == ["ok"]
        first, extra = system.all_replicas()
        woke = math.floor(extra.activated_at / 0.5) * 0.5 + 0.5
        assert ticks[:2] == [0.5, woke]
        # Awake above the floor until the idle window reclaims the extra
        # replica (the newest), then asleep at the floor again.
        assert ticks[-1] == woke + 5.5
        assert ticks[1:] == [woke + 0.5 * i for i in range(12)]
        assert first.accepting and not extra.accepting
        assert scaler._wake is not None

    def test_capacity_epoch_wakes_a_parked_sleeper(self, ctx, llama_profile):
        from repro.pipeline.sizing import degrade_until_fit

        allocator = ctx.allocator
        # 3 GB left everywhere: below every stage of the plan.
        fills = [
            allocator.reserve_on("fill", gpu, gpu.free_memory - 3 * GB)
            for gpu in ctx.cluster.gpus
        ]
        plan = self._plan(llama_profile)
        calls = []

        def deploy(profile, p, *, wait_time=0.0):
            calls.append(ctx.sim.now)
            kv = profile.spec.kv_bytes_per_request
            return degrade_until_fit(
                p.max_batch,
                lambda b: allocator.allocate_stages(
                    profile.spec.name, p.memory_per_stage(b, kv)
                ),
            )

        scaler, ticks, _ = self._scaler(ctx.sim, llama_profile, plan, min_replicas=1)
        scaler.deploy = deploy
        ctx.sim.schedule_at(5.2, allocator.release, fills[0])
        ctx.sim.run(until=10.0)
        # 0.5 fails with a certificate and sleeps; the release moves the
        # capacity epoch, so 5.5 retries (and sleeps again).
        assert calls == [0.5, 5.5]
        assert ticks == [0.5, 5.5]

    def test_a_tick_that_releases_capacity_wakes_a_later_parked_sleeper(
        self, ctx, llama_profile
    ):
        """A release inside an earlier member's tick lapses the
        certificate of a sleeper the same pass reaches later."""
        from repro.pipeline.sizing import degrade_until_fit
        from repro.scaling.autoscaler import ControlSweep

        allocator = ctx.allocator
        fills = [
            allocator.reserve_on("fill", gpu, gpu.free_memory - 3 * GB)
            for gpu in ctx.cluster.gpus
        ]
        plan = self._plan(llama_profile)
        calls = []

        def deploy(profile, p, *, wait_time=0.0):
            calls.append(ctx.sim.now)
            kv = profile.spec.kv_bytes_per_request
            return degrade_until_fit(
                p.max_batch,
                lambda b: allocator.allocate_stages(
                    profile.spec.name, p.memory_per_stage(b, kv)
                ),
            )

        sweep = ControlSweep(ctx.sim, 0.5)
        first, _, _ = self._scaler(
            ctx.sim, llama_profile, plan, sweep=sweep, min_replicas=0
        )
        parked, ticks, _ = self._scaler(
            ctx.sim, llama_profile, plan, sweep=sweep, min_replicas=1
        )
        parked.deploy = deploy

        def pressure():
            # Runs inside the first member's tick at every instant.
            if ctx.sim.now == 5.5:
                allocator.release(fills[0])
            return 0.0

        first.slo_pressure = pressure
        ctx.sim.run(until=7.0)
        assert calls == [0.5, 5.5]
        assert ticks == [0.5, 5.5]

    def test_a_sibling_renewal_keeps_a_lapsed_sleeper_asleep(
        self, ctx, llama_profile
    ):
        """Two same-shape tenants park on one shape proof.  When the epoch
        moves, the first one's rescan fails again and renews the proof,
        so the second one's wake check in the same pass stays false."""
        from repro.pipeline.sizing import degrade_until_fit
        from repro.scaling.autoscaler import ControlSweep

        allocator = ctx.allocator
        fills = [
            allocator.reserve_on("fill", gpu, gpu.free_memory - 3 * GB)
            for gpu in ctx.cluster.gpus
        ]
        plan = self._plan(llama_profile)
        calls = []

        def deployer(tenant):
            def deploy(profile, p, *, wait_time=0.0):
                calls.append((tenant, ctx.sim.now))
                kv = profile.spec.kv_bytes_per_request
                return degrade_until_fit(
                    p.max_batch,
                    lambda b: allocator.allocate_stages(
                        tenant, p.memory_per_stage(b, kv)
                    ),
                )

            return deploy

        sweep = ControlSweep(ctx.sim, 0.5)
        scalers, ticks = [], []
        for tenant in ("t0", "t1"):
            scaler, times, _ = self._scaler(
                ctx.sim, llama_profile, plan, sweep=sweep, min_replicas=1
            )
            scaler.deploy = deployer(tenant)
            scalers.append(scaler)
            ticks.append(times)
        ctx.sim.schedule_at(5.2, allocator.release, fills[0])
        ctx.sim.run(until=10.0)
        # t1's first deploy is a memo hit on t0's shape proof; after the
        # release only t0 rescans.
        assert calls == [("t0", 0.5), ("t1", 0.5), ("t0", 5.5)]
        assert ticks == [[0.5, 5.5], [0.5]]
        assert scalers[0]._parked[1].key == scalers[1]._parked[1].key
        assert all(s._wake is not None for s in scalers)
        # Every degradation rung: certified by t0 twice, hit by t1 once.
        assert allocator.new_certificates == 2 * allocator.memo_hits > 0

    def test_a_plan_choice_never_sleeps_parked(self, ctx, llama_profile):
        from repro.cluster.allocator import AllocationError, InfeasibleCertificate

        plan = self._plan(llama_profile)
        error = AllocationError("no room")
        error.certificate = InfeasibleCertificate(ctx.allocator, ("k",))
        ctx.allocator._infeasible[("k",)] = ctx.cluster.capacity_epoch

        def deploy(profile, p, *, wait_time=0.0):
            raise error

        scaler, ticks, _ = self._scaler(
            ctx.sim, llama_profile, lambda cv, queue: plan, min_replicas=1
        )
        scaler.deploy = deploy
        ctx.sim.run(until=5.0)
        assert len(ticks) == 10
        assert scaler._wake is None

    def test_cancelled_loading_replica_wakes_a_floor_sleeper(self, ctx):
        """A loading replica torn down before it activates leaves the
        fleet without ever reaching the router."""
        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import LLAMA2_7B

        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
        scaler = system.autoscalers[LLAMA2_7B.name]
        ticks = _tick_times(scaler)
        system.start()
        (first,) = system.all_replicas()
        ctx.sim.schedule_at(1.2, system.factory.release, first)
        ctx.sim.run(until=2.0)
        assert first.activated_at is None
        # Asleep at the floor while it loads; the cancel wakes the tenant,
        # which redeploys.
        assert ticks == [0.5, 1.5, 2.0]
        assert [r.created_at for r in system.all_replicas()] == [0.0, 1.5]

    def test_late_start_wakes_a_sleeping_tenant(self, ctx):
        """Replicas ``start`` deploys join the tenant's loading fleet."""
        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import LLAMA2_7B

        system = FlexPipeSystem(
            ctx, [LLAMA2_7B], initial_replicas=1, min_replicas=0
        )
        scaler = system.autoscalers[LLAMA2_7B.name]
        ticks = _tick_times(scaler)
        ctx.sim.schedule_at(2.2, system.start)
        ctx.sim.run(until=4.0)
        assert ticks[:2] == [0.5, 2.5]

    def test_forced_refactor_revives_a_resting_tenant(self, ctx):
        """A plan switch puts a resting tenant back in FlexPipe's live
        set, whose loop converges the replica back to the target."""
        import numpy as np

        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import LLAMA2_7B
        from repro.scenarios.driver import action_refactor

        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
        system.start()
        ctx.sim.run(until=30.0)
        (replica,) = system.all_replicas()
        target = system.current_granularity(LLAMA2_7B.name)
        assert replica.accepting and replica.n_stages == target
        assert not system._live.ranks  # no arrivals: resting
        outcome = action_refactor(
            system, np.random.default_rng(0), LLAMA2_7B.name, target_stages=8
        )
        assert outcome == "ok"
        ctx.sim.run(until=200.0)
        executor = system.executors()[LLAMA2_7B.name]
        assert executor.transitions_completed == 2
        assert replica.n_stages == target
        assert not system._live.ranks

    def test_enable_qos_wakes(self, ctx):
        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import LLAMA2_7B
        from repro.qos.classes import get_slo_class

        system = FlexPipeSystem(
            ctx, [LLAMA2_7B], initial_replicas=0, min_replicas=0
        )
        scaler = system.autoscalers[LLAMA2_7B.name]
        ticks = _tick_times(scaler)
        ctx.sim.schedule_at(
            2.2,
            system.enable_qos,
            {LLAMA2_7B.name: get_slo_class("interactive")},
        )
        ctx.sim.run(until=4.0)
        # The pressure hook is an input of every tick: no more sleep.
        assert ticks == [0.5, 2.5, 3.0, 3.5, 4.0]

    def test_stop_cancels_the_sweep(self, sim, llama_profile):
        from repro.scaling.autoscaler import ControlSweep

        sweep = ControlSweep(sim, 0.5)
        plan = self._plan(llama_profile)
        first, _, _ = self._scaler(sim, llama_profile, plan, sweep=sweep)
        second, ticks, _ = self._scaler(sim, llama_profile, plan, sweep=sweep)
        # A pressure hook keeps the second tenant awake at its floor.
        second.slo_pressure = lambda: 0.0
        sim.run(until=1.0)
        first.stop()
        sim.run(until=2.0)
        assert ticks == [0.5, 1.0, 1.5, 2.0]
        assert sim.pending_count() == 1
        second.stop()
        assert sim.pending_count() == 0

    def test_members_share_the_sweep_grid(self, sim, llama_profile):
        from repro.scaling.autoscaler import ControlSweep

        sweep = ControlSweep(sim, 0.5)
        plan = self._plan(llama_profile)
        with pytest.raises(ValueError):
            self._scaler(sim, llama_profile, plan, sweep=sweep, interval=1.0)
        self._scaler(sim, llama_profile, plan, sweep=sweep)
        sim.run(until=0.2)
        with pytest.raises(ValueError):
            self._scaler(sim, llama_profile, plan, sweep=sweep)


class TestEventDrivenControlCounts:
    """On the seed-0 ``coldstart-economy`` quick cells (108 mostly idle
    tenants), wake checks and refactoring visits scale with the tenants
    whose inputs moved, not with fleet x instants (the polling sweep
    made 75,744 floor checks on FlexPipe and 53,734 parked checks on
    DistServe, and the polling loop 42,120 refactoring visits)."""

    def _run(self, monkeypatch, system):
        from collections import Counter

        from repro.core.flexpipe import FlexPipeSystem
        from repro.scaling.autoscaler import Autoscaler, ControlSweep
        from repro.scenarios.driver import ScenarioCase, ScenarioDriver
        from repro.scenarios.library import get_scenario

        counts = Counter()

        def count(cls, name, key):
            method = getattr(cls, name)

            def counted(self, *args):
                counts[key] += 1
                return method(self, *args)

            monkeypatch.setattr(cls, name, counted)

        count(Autoscaler, "_floor_woken", "floor")
        count(Autoscaler, "_parked_woken", "parked")
        # Parking itself asks the parked check once; those are not polls.
        count(Autoscaler, "_sleeps_while_parked", "parks")
        count(ControlSweep, "_tick", "instants")
        count(FlexPipeSystem, "_control_tick", "intervals")
        count(FlexPipeSystem, "_share_allows_refactor", "visits")
        spec = get_scenario("coldstart-economy").quick()
        driver = ScenarioDriver(ScenarioCase(spec, system, 0))
        driver.run()
        return counts, len(driver.system.specs)

    def test_flexpipe(self, monkeypatch):
        counts, tenants = self._run(monkeypatch, "FlexPipe")
        polls = tenants * counts["instants"]
        assert counts["floor"] <= 0.01 * polls
        assert counts["visits"] <= 0.1 * tenants * counts["intervals"]

    def test_distserve(self, monkeypatch):
        counts, tenants = self._run(monkeypatch, "DistServe")
        polls = tenants * counts["instants"]
        assert counts["floor"] <= 0.01 * polls
        assert counts["parked"] - counts["parks"] <= 0.03 * polls


def _tick_times(scaler):
    """Record the simulated time of every tick the sweep runs."""
    times = []
    tick = scaler.tick

    def counted():
        times.append(scaler.sim.now)
        tick()

    scaler.tick = counted
    return times
