"""Tests for serverless reclamation / failure injection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.cluster import make_small_cluster
from repro.cluster.failures import (
    FailureInjector,
    ReclamationEvent,
    ReclamationPolicy,
    RecoveryTracker,
    VictimChoice,
)
from repro.core.context import ServingContext
from repro.core.flexpipe import FlexPipeSystem
from repro.models.zoo import LLAMA2_7B
from repro.simulation.engine import Simulator
from repro.simulation.processes import PeriodicProcess
from repro.simulation.randomness import RandomStreams
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.requests import RequestSampler


@pytest.fixture
def live_system():
    """A small FlexPipe deployment, settled and ready to serve."""
    sim = Simulator()
    streams = RandomStreams(seed=7)
    cluster = make_small_cluster(sim, n_servers=8, gpus_per_server=2)
    ctx = ServingContext.create(sim, cluster, streams)
    system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=2)
    system.start()
    sim.run(until=150.0)  # initial loads complete
    return sim, cluster, streams, system


class TestPolicy:
    def test_defaults_valid(self):
        policy = ReclamationPolicy()
        assert policy.choice is VictimChoice.SERVING_BIASED

    def test_bad_mtbf_rejected(self):
        with pytest.raises(ValueError, match="mtbf"):
            ReclamationPolicy(mtbf=0.0)

    def test_negative_downtime_rejected(self):
        with pytest.raises(ValueError, match="downtime"):
            ReclamationPolicy(downtime_mean=-1.0)


class TestEvent:
    def test_recovery_time_none_until_recovered(self):
        event = ReclamationEvent(time=10.0, gpu_id="g", downtime=5.0, replicas_hit=1)
        assert event.recovery_time is None
        event.recovered_at = 25.0
        assert event.recovery_time == 15.0


class TestInjection:
    def test_reclaim_drains_replicas_on_victim_gpu(self, live_system):
        sim, cluster, streams, system = live_system
        router = system.routers[LLAMA2_7B.name]
        before = len([r for r in router.replicas if r.accepting])
        assert before >= 1
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=1e9),
        )
        victim = router.replicas[0].stages[0].reservation.gpu
        injector._reclaim(victim)
        assert injector.events[0].replicas_hit >= 1
        assert LLAMA2_7B.name in injector.events[0].models_hit
        after = len([r for r in router.replicas if r.accepting])
        assert after == before - injector.events[0].replicas_hit

    def test_reclaim_drains_loading_replicas_too(self, live_system):
        """A replica still LOADING is in no router, but its reservations
        already occupy the victim GPU — reclamation must drain it, and it
        must never activate on the reclaimed device afterwards."""
        sim, cluster, streams, system = live_system
        state = system._models[LLAMA2_7B.name]
        plan = state.ladder.plan(state.current_stages)
        loading = system.factory.deploy(system.profiles[LLAMA2_7B.name], plan)
        assert loading.state.value == "loading"
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=1e9, downtime_mean=10.0),
        )
        victim = loading.stages[0].reservation.gpu
        event = injector.inject(victim)
        assert event is not None and event.replicas_hit >= 1
        assert loading.state.value == "released"
        # Bounded run (the system's periodic loops keep ticking): the
        # in-flight load completes harmlessly within the window.
        sim.run(until=sim.now + 120.0)
        assert loading.activated_at is None
        assert all(s.reservation.released for s in loading.stages)

    def test_memory_freed_by_draining_victims_stays_blocked(self, live_system):
        """Reallocation must not land on a reclaimed GPU mid-downtime:
        memory the draining victims release is absorbed by the blocker,
        and even a packed victim (zero free bytes) gets a restore."""
        sim, cluster, streams, system = live_system
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            # The drawn downtime is exponential(mean); a large mean keeps
            # this seed's draw comfortably above the drain time.
            ReclamationPolicy(mtbf=1e9, downtime_mean=2000.0),
        )
        router = system.routers[LLAMA2_7B.name]
        victim = router.replicas[0].stages[0].reservation.gpu
        start = sim.now
        event = injector.inject(victim)
        assert event is not None and event.replicas_hit >= 1
        assert event.downtime > 10.0  # long enough for the victims to drain
        # Let the victims drain well inside the downtime window: their
        # freed bytes must be re-absorbed, not become allocatable.
        sim.run(until=start + event.downtime - 2.0)
        assert victim.gid in injector._blocked
        # The blocker leaves a sub-byte float-safety hair unabsorbed.
        assert victim.free_memory == pytest.approx(0.0, abs=1e-2)
        # After the downtime the blocker releases what it absorbed.
        sim.run(until=start + event.downtime + 5.0)
        assert victim.gid not in injector._blocked
        assert victim.free_memory > 0

    def test_reclamation_aborts_inflight_refactor_inside_downtime_window(
        self, live_system
    ):
        """An in-flight refactor's *prepared* reservations are stages of
        no replica, so the reclamation drain cannot reach them.  The
        executor-level hook must abort the transition and release the
        prepared memory the moment the victim GPU is cordoned — inside
        the downtime window, not at the (cancelled) switch."""
        sim, cluster, streams, system = live_system
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=1e9, downtime_mean=2000.0),
        )
        state = system._models[LLAMA2_7B.name]
        replica = system.routers[LLAMA2_7B.name].active_replicas[0]
        target = next(
            c for c in state.ladder.stage_counts if c != replica.plan.n_stages
        )
        assert state.executor.refactor(replica, target)
        stage_gpus = {
            s.gpu
            for r in system.all_replicas()
            for s in (*r.stages, *r._retired_stages)
        }
        prepared = [
            res
            for res in system.ctx.allocator.live.values()
            if res.gpu not in stage_gpus
        ]
        assert prepared, "the transition must have prepared fresh GPUs"
        victim = prepared[0].gpu
        t_reclaim = sim.now
        event = injector.inject(victim)
        assert event is not None
        # Released at the reclamation instant — the very start of the
        # downtime window — not after the preparation window elapses.
        assert sim.now == t_reclaim
        assert all(res.released for res in prepared)
        assert state.executor.transitions_aborted == 1
        assert not state.executor.refactoring(replica)
        # No serving allocation remains on the victim; only the injector's
        # own blocker occupies it for the downtime.
        assert all(
            res.gpu is not victim
            for res in system.ctx.allocator.live.values()
        )
        sim.run(until=t_reclaim + 30.0)
        assert state.executor.transitions_completed == 0
        assert replica.plan.n_stages != target  # still on the old chain
        assert replica.anomalies == []

    def test_reclaimed_gpu_is_cordoned_against_placement(self, live_system):
        """Even in the instant between a victim freeing memory and the
        blocker absorbing it, the allocator must refuse to place serving
        stages on a reclaimed GPU."""
        sim, cluster, streams, system = live_system
        from repro.cluster.allocator import AllocationError

        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=1e9, downtime_mean=2000.0),
        )
        victim = system.routers[LLAMA2_7B.name].replicas[0].stages[0].reservation.gpu
        assert injector.inject(victim) is not None
        assert victim.cordoned
        # Simulate freshly-freed memory before the next top-up tick: the
        # cordon, not the blocker, must keep placement off the device.
        with pytest.raises(AllocationError):
            system.ctx.allocator.reserve_on(LLAMA2_7B.name, victim, 1024.0)
        assert victim not in system.ctx.allocator.candidates(0.0)
        sim.run(until=sim.now + injector.events[0].downtime + 5.0)
        assert not victim.cordoned

    def test_reclaimed_gpu_blocked_then_restored(self, live_system):
        sim, cluster, streams, system = live_system
        rng = np.random.default_rng(0)
        injector = FailureInjector(
            sim, cluster, rng, system, ReclamationPolicy(mtbf=1e9, downtime_mean=30.0)
        )
        idle = next(g for g in cluster.gpus if not g.model_tags)
        free_before = idle.free_memory
        injector._reclaim(idle)
        assert idle.free_memory == pytest.approx(0.0, abs=1.0)
        sim.run(until=sim.now + 500.0)
        assert idle.free_memory >= free_before * 0.99

    def test_poisson_schedule_fires_events(self, live_system):
        sim, cluster, streams, system = live_system
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=20.0, downtime_mean=10.0),
        )
        injector.start()
        sim.run(until=sim.now + 200.0)
        injector.stop()
        assert len(injector.events) >= 3

    def test_stop_halts_injection(self, live_system):
        sim, cluster, streams, system = live_system
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=5.0),
        )
        injector.start()
        sim.run(until=sim.now + 30.0)
        injector.stop()
        count = len(injector.events)
        sim.run(until=sim.now + 100.0)
        assert len(injector.events) == count

    def test_victim_choice_serving_biased_hits_models(self, live_system):
        sim, cluster, streams, system = live_system
        rng = np.random.default_rng(1)
        injector = FailureInjector(
            sim, cluster, rng, system,
            ReclamationPolicy(mtbf=1e9, choice=VictimChoice.SERVING_BIASED),
        )
        victim = injector._pick_victim()
        assert victim.model_tags  # hosts at least one model

    def test_victim_choice_idle_first_spares_models(self, live_system):
        sim, cluster, streams, system = live_system
        rng = np.random.default_rng(2)
        injector = FailureInjector(
            sim, cluster, rng, system,
            ReclamationPolicy(mtbf=1e9, choice=VictimChoice.IDLE_FIRST),
        )
        victim = injector._pick_victim()
        assert not victim.model_tags

    def test_summary_shape(self, live_system):
        sim, cluster, streams, system = live_system
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=30.0, downtime_mean=10.0),
        )
        injector.start()
        sim.run(until=sim.now + 120.0)
        summary = injector.summary()
        assert summary["events"] == len(injector.events)
        assert summary["replicas_hit"] >= 0
        assert set(summary) >= {"events", "recovered", "mean_recovery_s"}


class TestRecovery:
    def test_system_recovers_capacity_after_reclamation(self, live_system):
        """FlexPipe's own control loop restores the drained replica."""
        sim, cluster, streams, system = live_system
        # Live traffic so the autoscaler sees demand.
        generator = WorkloadGenerator(
            sim,
            PoissonArrivals(4.0, streams.stream("arrivals")),
            RequestSampler(LLAMA2_7B.name, streams.stream("requests")),
            system.submit,
            duration=300.0,
        )
        tracker = RecoveryTracker(sim)
        injector = FailureInjector(
            sim, cluster, streams.stream("failures"), system,
            ReclamationPolicy(mtbf=1e9, downtime_mean=20.0),
            tracker=tracker,
        )
        poller = PeriodicProcess(sim, 1.0, tracker.poll, start_delay=1.0)
        router = system.routers[LLAMA2_7B.name]
        victim = router.replicas[0].stages[0].reservation.gpu
        injector._reclaim(victim)
        assert tracker.open_events == 1
        sim.run(until=sim.now + 400.0)
        assert generator.offered > 0
        poller.stop()
        event = injector.events[0]
        assert event.recovered_at is not None
        assert event.recovery_time > 0.0
