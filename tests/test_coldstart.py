"""Cold-start economy: tiered-cache properties, eviction order, pipelined
stage loading, scale-to-zero, and coverage-aware placement."""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.deployment import ReplicaFactory
from repro.metrics.collector import MetricsCollector
from repro.models.zoo import LLAMA2_7B
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.replica import ReplicaState
from repro.pipeline.router import ModelRouter
from repro.refactoring.monitor import WorkloadMonitor
from repro.scaling.autoscaler import Autoscaler, AutoscalerConfig
from repro.scaling.warm_cache import CacheEntry, HostParamCache
from repro.scenarios.library import SCENARIOS
from repro.scenarios.spec import ScenarioSpec
from repro.transfer.links import GB


def _factory(ctx, **kwargs):
    router = ModelRouter(ctx.sim, LLAMA2_7B.name)
    metrics = MetricsCollector("test")
    factory = ReplicaFactory(
        ctx,
        routers={LLAMA2_7B.name: router},
        metrics=metrics,
        on_request_complete=lambda r: None,
        **kwargs,
    )
    return factory, router, metrics


class TestCacheOracle:
    """Randomised put/coverage sequences against a set-arithmetic oracle.

    Each put charges 1 byte per operator index (density 1), so the host
    accounting must equal the union's cardinality exactly — the overlap
    double-charge and the per-entry (vs union) coverage bugs both showed
    up only under overlapping ranges."""

    def test_put_coverage_matches_set_oracle(self, small_cluster, llama_profile):
        rng = random.Random(7)
        cache = HostParamCache()
        server = small_cluster.servers[0]
        n = len(llama_profile.graph)
        covered: set[int] = set()
        for _ in range(40):
            lo = rng.randrange(0, n - 1)
            hi = rng.randrange(lo + 1, n + 1)
            cache.put(
                server, llama_profile.spec.name, lo, hi, float(hi - lo), now=0.0
            )
            covered |= set(range(lo, hi))
            for _ in range(3):
                qlo = rng.randrange(0, n - 1)
                qhi = rng.randrange(qlo + 1, n + 1)
                oracle = sum(
                    llama_profile.graph.param_bytes(i, i + 1)
                    for i in range(qlo, qhi)
                    if i in covered
                )
                got = cache.coverage(server, llama_profile, qlo, qhi)
                assert got == pytest.approx(oracle, rel=1e-9, abs=1e-6)

    def test_overlapping_puts_never_double_charge(self, small_cluster):
        rng = random.Random(11)
        cache = HostParamCache()
        server = small_cluster.servers[0]
        covered: set[int] = set()
        for _ in range(60):
            lo = rng.randrange(0, 99)
            hi = rng.randrange(lo + 1, 101)
            cache.put(server, "m", lo, hi, float(hi - lo), now=0.0)
            covered |= set(range(lo, hi))
            assert server.host_memory_used == pytest.approx(len(covered))


class TestEvictionOrder:
    def _fill(self, cache, server, entries):
        for model, lo, hi, nbytes, now, kwargs in entries:
            assert cache.put(server, model, lo, hi, nbytes, now, **kwargs)

    def test_lru_evicts_least_recently_used(self, small_cluster, llama_profile):
        cache = HostParamCache(policy="lru")
        server = small_cluster.servers[0]
        server.host_memory = 10 * GB
        name = llama_profile.spec.name
        cache.put(server, name, 0, 5, 4 * GB, now=0.0)
        cache.put(server, "other", 0, 5, 4 * GB, now=1.0)
        # A coverage query with a timestamp is a use: it refreshes recency.
        cache.coverage(server, llama_profile, 0, 5, now=2.0)
        cache.put(server, "third", 0, 5, 4 * GB, now=3.0)  # forces eviction
        models = {e.model for e in cache.entries_for(server, "host")}
        assert models == {name, "third"}  # "other" was the LRU victim

    def test_gdsf_prefers_frequency_over_recency(
        self, small_cluster, llama_profile
    ):
        cache = HostParamCache(policy="gdsf")
        server = small_cluster.servers[0]
        server.host_memory = 10 * GB
        name = llama_profile.spec.name
        cache.put(server, name, 0, 5, 4 * GB, now=0.0)
        for t in (1.0, 2.0, 3.0):  # the old entry is hot
            cache.coverage(server, llama_profile, 0, 5, now=t)
        cache.put(server, "recent-one-shot", 0, 5, 4 * GB, now=4.0)
        cache.put(server, "churn", 0, 5, 4 * GB, now=5.0)  # forces eviction
        models = {e.model for e in cache.entries_for(server, "host")}
        # LRU would keep the more recent one-shot; GDSF keeps the hot set.
        assert name in models
        assert "recent-one-shot" not in models

    def test_gdsf_prefers_costly_reloads(self, small_cluster):
        cache = HostParamCache(policy="gdsf")
        server = small_cluster.servers[0]
        server.host_memory = 10 * GB
        cache.put(server, "pricey", 0, 5, 4 * GB, 0.0, load_cost=40.0)
        cache.put(server, "cheap", 0, 5, 4 * GB, 1.0, load_cost=4.0)
        cache.put(server, "churn", 0, 5, 4 * GB, 2.0, load_cost=4.0)
        models = {e.model for e in cache.entries_for(server, "host")}
        assert "pricey" in models
        assert "cheap" not in models

    def test_gdsf_clock_ages_out_abandoned_entries(self, small_cluster):
        """The aging clock must eventually reclaim a once-hot entry that
        stopped being referenced — without it GDSF pins stale hot sets."""
        cache = HostParamCache(policy="gdsf")
        server = small_cluster.servers[0]
        server.host_memory = 10 * GB
        server.ssd_capacity = 2 * GB  # demotions die quickly too
        cache.put(server, "was-hot", 0, 5, 2 * GB, now=0.0)
        for t in range(1, 6):
            cache.put(server, "was-hot", 0, 5, 2 * GB, now=float(t))
        for j in range(60):  # sustained one-shot churn, never re-used
            cache.put(server, f"churn-{j}", 0, 5, 2 * GB, now=10.0 + j)
        models = {e.model for e in cache.entries_for(server, "host")}
        assert "was-hot" not in models


class TestTwoTier:
    def test_host_eviction_demotes_to_ssd(self, small_cluster, llama_profile):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        server.host_memory = 10 * GB
        name = llama_profile.spec.name
        half = len(llama_profile.graph) // 2
        stage_bytes = llama_profile.graph.param_bytes(0, half)
        assert stage_bytes < server.host_memory  # must fit before it evicts
        cache.put(server, name, 0, half, stage_bytes, now=0.0)
        cache.put(server, "sweeper", 0, 5, 9 * GB, now=1.0)  # evicts the model
        host, ssd = cache.coverage_by_tier(server, llama_profile, 0, half)
        assert host == 0.0
        assert ssd == pytest.approx(stage_bytes)
        assert server.ssd_used == pytest.approx(stage_bytes)

    def test_tiers_never_overlap(self, small_cluster, llama_profile):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        name = llama_profile.spec.name
        n = len(llama_profile.graph)
        half = n // 2
        # Front half lives in host; the full range was demoted earlier, so
        # SSD holds everything — coverage must not count the overlap twice.
        cache._insert(
            server,
            "ssd",
            CacheEntry(name, 0, n, llama_profile.graph.param_bytes(0, n), 0.0),
        )
        cache.put(
            server, name, 0, half, llama_profile.graph.param_bytes(0, half), 1.0
        )
        host, ssd = cache.coverage_by_tier(server, llama_profile, 0, n)
        total = llama_profile.graph.param_bytes(0, n)
        assert host == pytest.approx(llama_profile.graph.param_bytes(0, half))
        assert host + ssd == pytest.approx(total)

    def test_ssd_eviction_discards(self, small_cluster):
        cache = HostParamCache()
        server = small_cluster.servers[0]
        server.host_memory = 4 * GB
        server.ssd_capacity = 4 * GB
        cache.put(server, "a", 0, 5, 3 * GB, now=0.0)
        cache.put(server, "b", 0, 5, 3 * GB, now=1.0)  # a demotes to SSD
        cache.put(server, "c", 0, 5, 3 * GB, now=2.0)  # b demotes, a discarded
        assert {e.model for e in cache.entries_for(server, "host")} == {"c"}
        assert {e.model for e in cache.entries_for(server, "ssd")} == {"b"}
        assert server.ssd_used <= server.ssd_capacity

    def test_probe_does_not_touch(self, small_cluster, llama_profile):
        cache = HostParamCache(policy="gdsf")
        server = small_cluster.servers[0]
        name = llama_profile.spec.name
        cache.put(server, name, 0, 10, GB, now=0.0)
        (entry,) = cache.entries_for(server, "host")
        cache.coverage_by_tier(server, llama_profile, 0, 10, None)  # probe
        assert entry.freq == 1
        cache.coverage_by_tier(server, llama_profile, 0, 10, now=1.0)  # use
        assert entry.freq == 2


class TestHolderIndex:
    """The per-model holder index against a scan of the entries.

    Seeded put sequences on small host/SSD tiers force evictions and
    demotions; after every put the index must equal a recount of every
    server's host and SSD entries, and the placement bonuses (which skip
    non-holders through the index) must equal the unindexed coverage
    scan."""

    @staticmethod
    def _scan_index(cache, servers):
        index: dict[str, dict[str, int]] = {}
        for server in servers:
            for tier in ("host", "ssd"):
                for entry in cache.entries_for(server, tier):
                    held = index.setdefault(entry.model, {})
                    held[server.sid] = held.get(server.sid, 0) + 1
        return index

    @staticmethod
    def _scan_bonus(cache, server, profile, sp) -> float:
        """The bonus from the entry scan alone (no index)."""
        stage_bytes = profile.graph.param_bytes(sp.start, sp.end)
        host, segs = cache._tier_coverage(
            "host", server, profile, sp.start, sp.end, None
        )
        ssd, _ = cache._tier_coverage(
            "ssd", server, profile, sp.start, sp.end, None, exclude=segs
        )
        host = min(host, stage_bytes)
        ssd = min(ssd, stage_bytes - host)
        return (2.0 * host + 1.0 * ssd) / max(sp.param_bytes, 1.0)

    @pytest.mark.parametrize("policy", ["lru", "gdsf"])
    def test_index_and_bonuses_match_the_scan(self, ctx, llama_profile, policy):
        rng = random.Random(f"holders-{policy}")
        cache = HostParamCache(policy=policy)
        servers = ctx.cluster.servers
        for server in servers:
            server.host_memory = 6 * GB
            server.ssd_capacity = 9 * GB
        profiles = {
            name: SimpleNamespace(
                spec=SimpleNamespace(name=name), graph=llama_profile.graph
            )
            for name in ("m0", "m1", "m2", "m3", "m4")
        }
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(4)
        factory, _, _ = _factory(ctx, warm_cache=cache)
        n_ops = len(llama_profile.graph)
        for step in range(400):
            server = rng.choice(servers)
            name = rng.choice(sorted(profiles))
            lo = rng.randrange(0, n_ops - 1)
            hi = rng.randrange(lo + 1, n_ops + 1)
            cache.put(
                server,
                name,
                lo,
                hi,
                rng.uniform(0.3, 2.5) * GB,
                now=float(step),
                load_cost=rng.uniform(1.0, 20.0),
            )
            held = {m: h for m, h in cache._holders.items() if h}
            assert held == self._scan_index(cache, servers)
            if step % 20:
                continue
            for name, profile in profiles.items():
                bonuses = factory._coverage_bonuses(profile, plan)
                for bonus, sp in zip(bonuses, plan.stages):
                    for gpu in ctx.cluster.gpus:
                        assert bonus(gpu) == self._scan_bonus(
                            cache, gpu.server, profile, sp
                        )
        # The sequence really evicted and demoted, on several servers.
        assert sum(cache.entry_count(s, "ssd") for s in servers) > 0
        assert sum(s.ssd_used for s in servers) > 0
        assert len({sid for h in cache._holders.values() for sid in h}) > 1


class TestPipelinedLoading:
    def test_pipelined_activates_before_full_load(self, ctx):
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(4)
        profile = ctx.profile(LLAMA2_7B)

        seq_factory, _, seq_metrics = _factory(ctx, pipelined_loading=False)
        seq_factory.deploy(profile, plan)
        ctx.sim.run_until_idle()
        seq_event = next(
            e for e in seq_metrics.events if e.kind == "scale_out"
        )

        pipe_factory, _, pipe_metrics = _factory(ctx, pipelined_loading=True)
        replica = pipe_factory.deploy(profile, plan)
        ctx.sim.run_until_idle()
        pipe_event = next(
            e for e in pipe_metrics.events if e.kind == "scale_out"
        )

        # The replica serves once stage 0 lands; later stages were gated
        # and opened front-to-back as their own transfers completed.
        assert pipe_event.init_time < seq_event.init_time
        stages = replica.stages
        assert all(s.was_gated for s in stages)
        assert all(s.loaded and s.params_resident for s in stages)
        # Front-to-back sequencing: each later stage opens after the one
        # before it.  Stage 0's own mark is deferred by the startup
        # overhead, so the ordering claim starts at stage 1.
        marks = [s.loaded_at for s in stages[1:]]
        assert marks == sorted(marks)

    def test_cancelled_load_fabricates_no_warm_coverage(self, ctx):
        cache = HostParamCache()
        factory, router, metrics = _factory(
            ctx, warm_cache=cache, pipelined_loading=True
        )
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        replica = factory.deploy(ctx.profile(LLAMA2_7B), plan)
        factory.release(replica)  # cancelled while transfers are in flight
        # At cancellation no bytes have landed: nothing may look warm.
        assert all(not s.params_resident for s in replica.stages)
        assert sum(cache.server_bytes(s) for s in ctx.cluster.servers) == 0.0
        ctx.sim.run_until_idle()
        assert replica.state is ReplicaState.RELEASED
        assert router.active_replicas == []
        assert not any(e.kind == "scale_out" for e in metrics.events)


class TestCoverageSteering:
    def test_stages_pinned_to_servers_holding_their_bytes(self, ctx):
        cache = HostParamCache()
        factory, _, _ = _factory(ctx, warm_cache=cache)
        profile = ctx.profile(LLAMA2_7B)
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        targets = [ctx.cluster.servers[2], ctx.cluster.servers[4]]
        for sp, server in zip(plan.stages, targets):
            cache.put(
                server, profile.spec.name, sp.start, sp.end, sp.param_bytes, 0.0
            )
        replica = factory.deploy(profile, plan)
        placed = [s.reservation.gpu.server for s in replica.stages]
        assert placed == targets


class TestScaleToZero:
    def _scaler(self, ctx, llama_profile, router, released, **cfg):
        plan = GranularityLadder(llama_profile, stage_counts=(2, 4)).plan(2)
        scaler = Autoscaler(
            ctx.sim,
            router,
            WorkloadMonitor(),
            llama_profile,
            MetricsCollector("test"),
            lambda profile, p, **kw: SimpleNamespace(
                state=ReplicaState.LOADING
            ),
            released.append,
            lambda cv, queue: plan,
            AutoscalerConfig(**cfg),
        )
        scaler.stop()  # tick manually; the periodic process never ends
        return scaler, plan

    def _idle_replica(self, plan):
        return SimpleNamespace(
            plan=plan,
            max_batch=plan.max_batch,
            activated_at=0.0,
            state=ReplicaState.ACTIVE,
        )

    def test_idle_tenant_scales_to_zero(self, ctx, llama_profile):
        released: list = []
        router = SimpleNamespace(active_replicas=[], total_queue=0)
        scaler, plan = self._scaler(
            ctx, llama_profile, router, released, min_replicas=0, idle_window=1.0
        )
        router.active_replicas = [self._idle_replica(plan)]
        ctx.sim.schedule(0.0, scaler.tick)
        ctx.sim.schedule(1.5, scaler.tick)  # past the idle window
        ctx.sim.run_until_idle()
        assert released == router.active_replicas

    def test_min_replicas_one_never_reaches_zero(self, ctx, llama_profile):
        released: list = []
        router = SimpleNamespace(active_replicas=[], total_queue=0)
        scaler, plan = self._scaler(
            ctx, llama_profile, router, released, min_replicas=1, idle_window=1.0
        )
        router.active_replicas = [self._idle_replica(plan)]
        ctx.sim.schedule(0.0, scaler.tick)
        ctx.sim.schedule(1.5, scaler.tick)
        ctx.sim.run_until_idle()
        assert released == []

    def test_queued_work_blocks_scale_to_zero(self, ctx, llama_profile):
        released: list = []
        router = SimpleNamespace(active_replicas=[], total_queue=3)
        scaler, plan = self._scaler(
            ctx, llama_profile, router, released, min_replicas=0, idle_window=1.0
        )
        router.active_replicas = [self._idle_replica(plan)]
        ctx.sim.schedule(0.0, scaler.tick)
        ctx.sim.schedule(1.5, scaler.tick)
        ctx.sim.run_until_idle()
        assert released == []


class TestFlexPipeBatchCap:
    def test_scale_out_deploys_honour_the_operating_cap(self, ctx):
        from repro.core.flexpipe import FlexPipeSystem

        system = FlexPipeSystem(
            ctx, [LLAMA2_7B], initial_replicas=0, batch_cap=4
        )
        profile = ctx.profile(LLAMA2_7B)
        plan = ctx.ladder(LLAMA2_7B, (2, 4)).plan(2)
        assert plan.max_batch > 4  # the cap must actually bind
        replica = system._models[LLAMA2_7B.name].autoscaler.deploy(profile, plan)
        assert replica.batcher.config.max_batch <= 4


class TestColdstartSpec:
    def test_hardware_knobs_validate(self):
        base = SCENARIOS["coldstart-economy"]
        for knob in ("host_cache_gb", "ssd_cache_gb", "storage_gbps"):
            with pytest.raises(ValueError):
                replace(base, **{knob: 0.0})

    def test_round_trip_preserves_hardware_knobs(self):
        base = SCENARIOS["coldstart-economy"]
        again = ScenarioSpec.from_dict(base.to_dict())
        assert again == base
        assert again.host_cache_gb == base.host_cache_gb
        assert again.ssd_cache_gb == base.ssd_cache_gb
        assert again.storage_gbps == base.storage_gbps

    def test_fleet_is_deterministic_and_large(self):
        base = SCENARIOS["coldstart-economy"]
        names = [m.model for m in base.models]
        assert len(names) == 108
        assert len(set(names)) == 108
        # Sizes are pinned in the names, so every process synthesises the
        # identical fleet.
        assert all(n.startswith("FLEET-") and n.endswith("g") for n in names)
