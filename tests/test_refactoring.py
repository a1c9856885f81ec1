"""Tests for monitoring, Eq. 4/5 policy, Eq. 6-9 placement, and the executor."""

from __future__ import annotations

import pytest

from repro.metrics.collector import MetricsCollector
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.refactoring.executor import RefactoringExecutor
from repro.refactoring.granularity import (
    GranularityPolicy,
    estimate_latency,
    estimate_throughput,
    instance_count,
)
from repro.refactoring.monitor import WorkloadMonitor
from repro.refactoring.placement import (
    interference_multiplier,
    make_eq6_scorer,
    multiplexing_penalty,
)
from repro.scaling.warm_cache import HostParamCache
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import Request, RequestSampler


class TestMonitor:
    def test_cv_tracks_arrival_process(self):
        monitor = WorkloadMonitor(window=100.0)
        rng = RandomStreams(0).stream("a")
        t = 0.0
        for _ in range(200):
            t += float(rng.exponential(0.5))
            monitor.observe(t)
        assert monitor.cv(t) == pytest.approx(1.0, rel=0.3)

    def test_gradient_detects_rising_intensity(self):
        monitor = WorkloadMonitor(window=10.0)
        t = 0.0
        for i in range(100):
            gap = 1.0 / (1.0 + i * 0.3)  # accelerating arrivals
            t += gap
            monitor.observe(t)
            if i % 10 == 0:
                monitor.sample_rate(t)
        assert monitor.intensity_gradient(t) > 0

    def test_gradient_zero_without_samples(self):
        assert WorkloadMonitor().intensity_gradient(0.0) == 0.0


class TestGranularityPolicy:
    @pytest.fixture(scope="class")
    def policy(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4, 8, 16))
        return GranularityPolicy(llama_profile, ladder)

    def test_selected_granularity_is_monotone_in_cv(self, policy):
        """Insight 3: burstier workloads get (weakly) deeper pipelines."""
        picks = [policy.select(cv) for cv in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(b >= a for a, b in zip(picks, picks[1:]))
        assert picks[-1] > picks[0]

    def test_scores_cover_all_rungs(self, policy):
        scores = policy.scores(1.0)
        assert set(scores) == {2, 4, 8, 16}
        assert all(s > 0 for s in scores.values())

    def test_matching_term_peaks_at_setpoint(self, policy):
        est = policy.estimates[8]
        at_setpoint = policy.score(8, est.cv_setpoint)
        off_setpoint = policy.score(8, est.cv_setpoint + 5.0)
        assert at_setpoint > off_setpoint

    def test_invalid_params_rejected(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        with pytest.raises(ValueError):
            GranularityPolicy(llama_profile, ladder, alpha=1.5)
        with pytest.raises(ValueError):
            GranularityPolicy(llama_profile, ladder, sigma=0.0)


class TestPerformanceEstimates:
    def test_throughput_grows_with_batch(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(4,))
        plan = ladder.plan(4)
        t8 = estimate_throughput(llama_profile, plan, batch=8)
        t64 = estimate_throughput(llama_profile, plan, batch=64)
        assert t64 > t8

    def test_latency_grows_with_stage_count(self, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 16))
        l2 = estimate_latency(llama_profile, ladder.plan(2))
        l16 = estimate_latency(llama_profile, ladder.plan(16))
        assert l16 > l2  # comm hops dominate at fine granularity

    def test_instance_count_eq5(self):
        # mu_k = 10 / (1 + 0.02*8) = 8.62; 50/8.62 -> 6 instances
        assert instance_count(50.0, 10.0, 8) == 6
        assert instance_count(0.0, 10.0, 8) == 1  # floor
        with pytest.raises(ValueError):
            instance_count(10.0, 0.0, 4)

    def test_instance_count_penalises_deep_pipelines(self):
        coarse = instance_count(100.0, 20.0, 2)
        fine = instance_count(100.0, 20.0, 32)
        assert fine >= coarse


class TestPlacement:
    def test_penalty_quadratic_in_cv(self):
        low = multiplexing_penalty(1.0)
        high = multiplexing_penalty(4.0)
        assert high / low == pytest.approx((1 + 0.25 * 16) / (1 + 0.25), rel=1e-6)

    def test_interference_only_when_shared(self, small_cluster):
        gpu = small_cluster.gpus[0]
        assert interference_multiplier(gpu, cv=4.0) == 1.0
        gpu.reserve("a", 1.0, model="m1")
        assert interference_multiplier(gpu, cv=4.0) == 1.0  # one model: isolated
        gpu.reserve("b", 1.0, model="m2")
        assert interference_multiplier(gpu, cv=4.0) > 1.0

    def test_scorer_avoids_sharing_by_default(self, small_cluster):
        scorer = make_eq6_scorer(lambda: 2.0)
        empty, shared = small_cluster.gpus[0], small_cluster.gpus[1]
        shared.reserve("x", 1.0, model="other")
        assert scorer(empty) > scorer(shared)

    def test_scorer_prefers_sharing_for_muxserve(self, small_cluster):
        scorer = make_eq6_scorer(lambda: 0.5, prefer_colocation=True)
        empty, shared = small_cluster.gpus[0], small_cluster.gpus[1]
        shared.reserve("x", 1.0, model="other")
        assert scorer(shared) > scorer(empty)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            multiplexing_penalty(1.0, gamma0=-0.1)


class TestExecutor:
    def _deploy(self, ctx, profile, ladder, n_stages, completed):
        plan = ladder.plan(n_stages)
        mems = plan.memory_per_stage(8, profile.spec.kv_bytes_per_request)
        reservations = ctx.allocator.allocate_stages(profile.spec.name, mems)
        replica = PipelineReplica(
            ctx.sim,
            profile,
            plan,
            reservations,
            batcher_config=BatcherConfig(max_batch=8, max_wait=0.01),
            on_request_complete=completed.append,
        )
        replica.activate()
        return replica

    @pytest.fixture
    def setup(self, ctx, llama_profile):
        ladder = GranularityLadder(llama_profile, stage_counts=(2, 4))
        metrics = MetricsCollector("test")
        executor = RefactoringExecutor(
            ctx, llama_profile, ladder, metrics, warm_cache=HostParamCache()
        )
        return ctx, ladder, metrics, executor

    def test_split_transition_changes_granularity(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 2, completed)
        assert executor.refactor(replica, 4)
        ctx.sim.run_until_idle()
        assert replica.plan.n_stages == 4
        assert executor.transitions_completed == 1
        assert metrics.events[-1].kind == "refactor"
        assert executor.consistency_checks == 1

    def test_merge_transition_releases_gpus(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 4, completed)
        before = ctx.allocator.gpus_in_use()
        assert executor.refactor(replica, 2)
        ctx.sim.run_until_idle()
        assert replica.plan.n_stages == 2
        assert ctx.allocator.gpus_in_use() < before

    def test_requests_survive_transition(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 2, completed)
        sampler = RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))
        for _ in range(4):
            replica.submit(sampler.sample(ctx.sim.now))
        assert executor.refactor(replica, 4)
        # Keep submitting while the transition is in flight.
        ctx.sim.schedule(0.05, lambda: replica.submit(sampler.sample(ctx.sim.now)))
        ctx.sim.run_until_idle()
        assert len(completed) == 5

    def test_noop_refactor_rejected(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert not executor.refactor(replica, 2)

    def test_concurrent_refactor_rejected(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert executor.refactor(replica, 4)
        assert not executor.refactor(replica, 4)
        assert executor.refactoring(replica)

    def test_refactor_of_inactive_replica_rejected(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        replica.drain()
        assert not executor.refactor(replica, 4)

    def test_released_mid_transition_cleans_reservations(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        replica.on_released = lambda r: [
            ctx.allocator.release(s.reservation)
            for s in r.stages
            if not s.reservation.released
        ]
        assert executor.refactor(replica, 4)
        replica.drain()  # released before the switch fires
        ctx.sim.run_until_idle()
        # Every reservation the transition created must have been released.
        live_models = {r.model for r in ctx.allocator.live.values()}
        assert "LLAMA2-7B" not in live_models

    def test_drain_during_preparation_window_skips_the_swap(
        self, setup, llama_profile
    ):
        """Refactor-vs-drain race: a replica that starts draining while
        the transition prepares must not receive the new chain — the
        prepared reservations go straight back to the allocator."""
        ctx, ladder, metrics, executor = setup
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 2, completed)
        replica.on_released = lambda r: [
            ctx.allocator.release(s.reservation)
            for s in r.stages
            if not s.reservation.released
        ]
        # A long-running batch keeps the replica DRAINING (not RELEASED)
        # across the whole preparation window.
        replica.submit(
            Request(
                rid=990,
                model="LLAMA2-7B",
                arrival_time=ctx.sim.now,
                prompt_tokens=2048,
                output_tokens=256,
                slo_latency=100.0,
            )
        )
        ctx.sim.run(until=0.05)  # batch dispatched, job in flight
        assert replica.inflight_jobs == 1
        assert executor.refactor(replica, 4)
        replica.drain()  # mid-preparation-window
        assert replica.state is ReplicaState.DRAINING
        ctx.sim.run_until_idle()
        # The in-flight request still completed (no drop)...
        assert len(completed) == 1
        # ...but no chain was swapped onto the dying replica...
        assert replica.reconfig_count == 0
        assert executor.transitions_completed == 0
        assert replica.plan.n_stages == 2
        # ...and nothing leaked: replica released, allocator clean.
        assert replica.state is ReplicaState.RELEASED
        live_models = {r.model for r in ctx.allocator.live.values()}
        assert "LLAMA2-7B" not in live_models
        assert replica.anomalies == []

    def test_reclaimed_target_gpu_aborts_the_swap(self, setup, llama_profile):
        """Refactor-vs-reclamation race: if the platform cordons a GPU
        holding a prepared stage during the preparation window, the swap
        must abort and give the reservations back — never serve from a
        reclaimed device."""
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert executor.refactor(replica, 4)
        # Mid-window, the platform reclaims every GPU the transition
        # prepared on (cordon only; no drain reaches these reservations).
        prepared = [
            res
            for res in ctx.allocator.live.values()
            if res.gpu not in {s.gpu for s in replica.stages}
        ]
        assert prepared
        for res in prepared:
            res.gpu.cordoned = True
        ctx.sim.run_until_idle()
        assert executor.transitions_completed == 0
        assert replica.plan.n_stages == 2  # still on the old chain
        assert all(res.released for res in prepared)
        assert not any(
            s.reservation.gpu.cordoned for s in replica.stages
        )  # serving never moved onto a reclaimed device

    def test_abort_on_cordon_releases_prepared_memory_immediately(
        self, setup, llama_profile
    ):
        """The executor-level reclamation hook: when a victim GPU holding
        a *prepared* stage is cordoned, the transition aborts right then —
        the memory does not sit on the reclaimed GPU until ``_switch``."""
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert executor.refactor(replica, 4)
        prepared = [
            res
            for res in ctx.allocator.live.values()
            if res.gpu not in {s.gpu for s in replica.stages}
        ]
        assert prepared
        victim = prepared[0].gpu
        victim.cordoned = True
        t_cordon = ctx.sim.now
        assert executor.abort_on_cordon(victim) == 1
        # Released at the cordon instant — zero simulated time elapsed.
        assert ctx.sim.now == t_cordon
        assert all(res.released for res in prepared)
        assert executor.transitions_aborted == 1
        assert not executor.refactoring(replica)
        assert metrics.events[-1].kind == "refactor_aborted"
        # The cancelled switch never fires; the replica keeps serving its
        # old chain, and a later refactor is allowed again.
        ctx.sim.run_until_idle()
        assert executor.transitions_completed == 0
        assert replica.plan.n_stages == 2
        assert replica.anomalies == []
        victim.uncordon()
        assert executor.refactor(replica, 4)

    def test_abort_on_cordon_ignores_unrelated_gpus(self, setup, llama_profile):
        ctx, ladder, metrics, executor = setup
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        assert executor.refactor(replica, 4)
        used = {res.gpu for res in ctx.allocator.live.values()}
        bystander = next(g for g in ctx.cluster.gpus if g not in used)
        assert executor.abort_on_cordon(bystander) == 0
        assert executor.refactoring(replica)
        ctx.sim.run_until_idle()
        assert executor.transitions_completed == 1
        assert replica.plan.n_stages == 4

    def test_memory_degradation_halves_batch_instead_of_aborting(
        self, setup, llama_profile
    ):
        """Mirror of deploy's fallback: when the target rung cannot fit
        at the full batch's KV reservation, the transition degrades the
        batch rather than failing outright."""
        ctx, ladder, metrics, _ = setup
        executor = RefactoringExecutor(
            ctx,
            llama_profile,
            ladder,
            metrics,
            warm_cache=HostParamCache(),
            batch_cap=32,
        )
        completed = []
        replica = self._deploy(ctx, llama_profile, ladder, 2, completed)
        # Shape the cluster so every GPU can host any 4-stage piece at
        # batch 16 but none can take the largest piece at batch 32.
        plan4 = ladder.plan(4)
        kv = llama_profile.spec.kv_bytes_per_request
        mems32 = plan4.memory_per_stage(32, kv)
        mems16 = plan4.memory_per_stage(16, kv)
        assert max(mems32) > max(mems16)
        free = (max(mems16) + max(mems32)) / 2
        for gpu in ctx.cluster.gpus:
            gpu.background_mem = max(
                gpu.spec.memory - gpu.serving_mem - free, 0.0
            )
        assert executor.refactor(replica, 4)
        ctx.sim.run_until_idle()
        assert replica.plan.n_stages == 4
        assert executor.transitions_completed == 1
        assert replica.max_batch <= 16  # degraded below the 32 cap

    def test_refactor_event_includes_decision_latency(
        self, setup, llama_profile
    ):
        """Fig. 6-style accounting: the recorded transition time must be
        decision latency + preparation window + switch pause — what the
        executor actually scheduled."""
        ctx, ladder, metrics, _ = setup
        executor = RefactoringExecutor(
            ctx,
            llama_profile,
            ladder,
            metrics,
            warm_cache=HostParamCache(),
            decision_latency=5.0,
        )
        replica = self._deploy(ctx, llama_profile, ladder, 2, [])
        start = ctx.sim.now
        assert executor.refactor(replica, 4)
        ctx.sim.run_until_idle()
        event = [e for e in metrics.events if e.kind == "refactor"][-1]
        assert event.init_time >= 5.0
        # The event time and the recorded duration agree end to end.
        assert event.init_time == pytest.approx(event.time - start)
