"""Multi-tenant QoS control plane: classes, scheduling, admission,
signals, and the end-to-end priority-inversion property."""

from __future__ import annotations


import pytest

from repro.core.admission import AdmissionGate, SLOFeasiblePolicy
from repro.qos import (
    SLO_CLASSES,
    AttainmentTracker,
    PriorityPendingQueue,
    SLOClass,
    WeightedFairShedPolicy,
    effective_deadline,
    get_slo_class,
    request_priority,
)
from repro.workloads.requests import Request


def make_request(rid=0, model="m", t=0.0, slo=5.0, slo_class=None):
    return Request(
        rid=rid,
        model=model,
        arrival_time=t,
        prompt_tokens=100,
        output_tokens=10,
        slo_latency=slo,
        slo_class=slo_class,
    )


# ----------------------------------------------------------------------
# Class registry
# ----------------------------------------------------------------------
class TestClasses:
    def test_catalog_has_the_four_classes(self):
        assert set(SLO_CLASSES) == {
            "interactive", "standard", "batch", "best_effort",
        }

    def test_priorities_strictly_ordered_by_urgency(self):
        ordered = sorted(SLO_CLASSES.values(), key=lambda c: c.priority)
        names = [c.name for c in ordered]
        assert names == ["interactive", "standard", "batch", "best_effort"]
        targets = [c.latency_target for c in ordered]
        assert targets == sorted(targets)  # more urgent = tighter deadline
        weights = [c.weight for c in ordered]
        assert weights == sorted(weights, reverse=True)

    def test_standard_matches_the_historical_default(self):
        """Annotating a tenant `standard` must not change its workload."""
        assert SLO_CLASSES["standard"].latency_target == 10.0

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError, match="available"):
            get_slo_class("gold")

    def test_validation(self):
        with pytest.raises(ValueError, match="latency"):
            SLOClass("x", latency_target=0.0, priority=0, weight=1.0)
        with pytest.raises(ValueError, match="shed"):
            SLOClass("x", latency_target=1.0, priority=0, weight=1.0, shed="maybe")

    def test_effective_deadline_prefers_the_request_class(self):
        classed = make_request(slo=2.5, slo_class="batch")
        assert effective_deadline(classed) == SLO_CLASSES["batch"].latency_target
        unclassed = make_request(slo=7.0)
        assert effective_deadline(unclassed) == 7.0

    def test_request_priority_resolution_order(self):
        assert request_priority(make_request(slo_class="interactive")) == 0
        assert request_priority(make_request(), SLO_CLASSES["batch"]) == 2
        assert request_priority(make_request()) == SLO_CLASSES["standard"].priority


# ----------------------------------------------------------------------
# SLO-feasibility uses the request's own class deadline (satellite fix)
# ----------------------------------------------------------------------
class TestSLOFeasibleClassDeadline:
    def make_policy(self, queue=100, capacity=10.0, service=1.0):
        return SLOFeasiblePolicy(
            lambda: queue, lambda: capacity, lambda r: service
        )

    def test_batch_request_not_shed_against_interactive_deadline(self):
        """Regression: estimated completion 11 s is infeasible for the
        frozen interactive-grade slo_latency the sampler stamped, but the
        request is batch class (30 s target) — it must be admitted."""
        policy = self.make_policy(queue=100, capacity=10.0, service=1.0)
        mislabeled = make_request(slo=2.5, slo_class="batch")
        assert policy.admit(mislabeled)
        # Sanity: the same shape *without* a class keeps the old verdict.
        assert not policy.admit(make_request(slo=2.5))

    def test_interactive_request_judged_at_interactive_deadline(self):
        policy = self.make_policy(queue=100, capacity=10.0, service=1.0)
        request = make_request(slo=60.0, slo_class="interactive")
        assert not policy.admit(request)  # 11 s > the class's 2.5 s


# ----------------------------------------------------------------------
# Priority pending queue
# ----------------------------------------------------------------------
class TestPriorityPendingQueue:
    def make_queue(self, clock=lambda: 0.0, aging=None):
        return PriorityPendingQueue(
            clock, lambda r: request_priority(r), aging=aging
        )

    def test_single_class_is_fifo(self):
        queue = self.make_queue()
        for i in range(5):
            queue.append(make_request(i, slo_class="batch"))
        assert [queue.popleft().rid for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_strict_priority_across_classes_fifo_within(self):
        queue = self.make_queue()
        queue.append(make_request(0, slo_class="batch"))
        queue.append(make_request(1, slo_class="interactive"))
        queue.append(make_request(2, slo_class="batch"))
        queue.append(make_request(3, slo_class="interactive"))
        queue.append(make_request(4, slo_class="standard"))
        order = [queue.popleft().rid for _ in range(5)]
        assert order == [1, 3, 4, 0, 2]

    def test_unclassed_requests_rank_as_standard(self):
        queue = self.make_queue()
        queue.append(make_request(0, slo_class="batch"))
        queue.append(make_request(1))  # standard by default
        assert queue.popleft().rid == 1

    def test_len_bool_iter_clear(self):
        queue = self.make_queue()
        assert not queue
        for i in range(3):
            queue.append(make_request(i, slo_class="interactive" if i else "batch"))
        assert len(queue) == 3 and queue
        assert {r.rid for r in queue} == {0, 1, 2}
        queue.clear()
        assert len(queue) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            self.make_queue().popleft()

    def test_aging_promotes_a_starving_batch_request(self):
        """Anti-starvation: after `aging * rank-gap` seconds a batch
        request overtakes fresh interactive arrivals."""
        clock = {"now": 0.0}
        queue = self.make_queue(clock=lambda: clock["now"], aging=5.0)
        queue.append(make_request(0, slo_class="batch"))
        clock["now"] = 11.0  # batch waited 11 s -> effective rank 0
        queue.append(make_request(1, slo_class="interactive"))
        assert queue.popleft().rid == 0
        assert queue.popleft().rid == 1

    def test_without_aging_starvation_is_possible(self):
        clock = {"now": 0.0}
        queue = self.make_queue(clock=lambda: clock["now"], aging=None)
        queue.append(make_request(0, slo_class="batch"))
        clock["now"] = 1000.0
        queue.append(make_request(1, slo_class="interactive"))
        assert queue.popleft().rid == 1

    def test_bad_aging_rejected(self):
        with pytest.raises(ValueError, match="aging"):
            self.make_queue(aging=0.0)

    def test_explicit_stamps_oldest_and_arrival_order(self):
        """Stamps default to the clock; an explicit one is kept as given.
        ``oldest`` is the earliest stamp across classes and ``entries``
        lists arrival order, not pop order."""
        queue = self.make_queue(clock=lambda: 7.0)
        assert queue.oldest() is None
        queue.append(make_request(0, slo_class="interactive"))
        queue.append(make_request(1, slo_class="batch"), 2.0)
        queue.append(make_request(2, slo_class="batch"), 5.0)
        assert queue.oldest() == 2.0
        assert [(r.rid, t) for r, t in queue.entries()] == [
            (0, 7.0), (1, 2.0), (2, 5.0)
        ]
        assert queue.popleft().rid == 0
        assert queue.popleft().rid == 1
        assert queue.oldest() == 5.0


# ----------------------------------------------------------------------
# Weighted-fair shedding
# ----------------------------------------------------------------------
class TestWeightedFairShed:
    def run_policy(self, slo_class, overloaded=True, n=100):
        policy = WeightedFairShedPolicy(
            lambda: overloaded, get_slo_class(slo_class)
        )
        return sum(0 if policy.admit(make_request(i)) else 1 for i in range(n))

    def test_protect_never_sheds(self):
        assert self.run_policy("interactive") == 0

    def test_first_sheds_everything_under_overload(self):
        assert self.run_policy("best_effort") == 100

    def test_fair_shed_inverse_to_weight(self):
        # batch weight 2 -> 1/2 shed; standard weight 4 -> 1/4 shed.
        assert self.run_policy("batch") == 50
        assert self.run_policy("standard") == 25

    def test_nothing_sheds_off_overload(self):
        for name in SLO_CLASSES:
            assert self.run_policy(name, overloaded=False) == 0

    def test_credit_resets_when_overload_clears(self):
        state = {"over": True}
        policy = WeightedFairShedPolicy(
            lambda: state["over"], get_slo_class("batch")
        )
        policy.admit(make_request(0))  # accrues half a credit
        state["over"] = False
        policy.admit(make_request(1))  # calm tick resets the credit
        state["over"] = True
        # A fresh overload starts from zero: first request admitted again.
        assert policy.admit(make_request(2))

    def test_determinism(self):
        a = [
            WeightedFairShedPolicy(lambda: True, get_slo_class("batch")).admit(
                make_request(i)
            )
            for i in range(10)
        ]
        # Each fresh policy gives the same first verdict; one policy
        # alternates deterministically.
        policy = WeightedFairShedPolicy(lambda: True, get_slo_class("batch"))
        b = [policy.admit(make_request(i)) for i in range(10)]
        assert all(a)
        assert b == [True, False] * 5


# ----------------------------------------------------------------------
# Tenant admission control: per-tenant chains on the admission gate
# ----------------------------------------------------------------------
class TestTenantAdmissionController:
    def test_books_balance_per_tenant_and_aggregate(self):
        gate = AdmissionGate(lambda r: None)
        shed_all = WeightedFairShedPolicy(
            lambda: True, get_slo_class("best_effort")
        )
        gate.register("be", [shed_all])
        gate.register("it", [])
        for i in range(10):
            gate.submit(make_request(i, model="be"))
            gate.submit(make_request(100 + i, model="it"))
        stats = gate.tenant_stats()
        assert stats["be"].offered == 10 and stats["be"].rejected == 10
        assert stats["it"].offered == 10 and stats["it"].admitted == 10
        agg = gate.stats
        assert agg.offered == agg.admitted + agg.rejected == 20
        for t in stats.values():
            assert t.offered == t.admitted + t.rejected

    def test_unregistered_tenant_passes_through(self):
        seen = []
        gate = AdmissionGate(seen.append)
        gate.submit(make_request(0, model="stranger"))
        assert len(seen) == 1
        assert gate.stats.admitted == 1
        assert gate.tenant_stats()["stranger"].admitted == 1

    def test_shed_marks_request_and_fires_hooks(self):
        clock = {"now": 0.0}
        tracker = AttainmentTracker(lambda: clock["now"], window=10.0)
        gate = AdmissionGate(lambda r: None, on_reject=tracker.observe_shed)
        gate.register(
            "be",
            [WeightedFairShedPolicy(lambda: True, get_slo_class("best_effort"))],
        )
        request = make_request(model="be")
        gate.submit(request)
        assert request.rejected
        assert tracker.attainment("be") == 0.0

    def test_double_registration_rejected(self):
        gate = AdmissionGate(lambda r: None)
        gate.register("m", [])
        with pytest.raises(ValueError, match="already"):
            gate.register("m", [])


# ----------------------------------------------------------------------
# Attainment tracker
# ----------------------------------------------------------------------
class TestAttainmentTracker:
    def make_tracker(self, clock):
        return AttainmentTracker(lambda: clock["now"], window=10.0)

    def complete(self, model, latency, slo_class=None, rid=0):
        request = make_request(rid, model=model, slo=5.0, slo_class=slo_class)
        request.completion_time = request.arrival_time + latency
        request.exec_time = latency / 2
        return request

    def test_attainment_none_before_data_then_windowed(self):
        clock = {"now": 0.0}
        tracker = self.make_tracker(clock)
        assert tracker.attainment("m") is None
        tracker.observe_completion(self.complete("m", latency=1.0))
        tracker.observe_completion(self.complete("m", latency=9.0))  # miss
        assert tracker.attainment("m") == 0.5
        clock["now"] = 20.0  # both fall out of the window
        assert tracker.attainment("m") is None

    def test_sheds_count_as_misses(self):
        clock = {"now": 0.0}
        tracker = self.make_tracker(clock)
        tracker.observe_completion(self.complete("m", latency=1.0))
        tracker.observe_shed(make_request(model="m"))
        assert tracker.attainment("m") == 0.5

    def test_completion_judged_against_class_deadline(self):
        clock = {"now": 0.0}
        tracker = self.make_tracker(clock)
        # 9 s latency: a miss at the unclassed 5 s target, a hit for batch.
        tracker.observe_completion(
            self.complete("m", latency=9.0, slo_class="batch")
        )
        assert tracker.attainment("m") == 1.0

    def test_completion_rate_cold_start_is_optimistic(self):
        clock = {"now": 0.0}
        tracker = self.make_tracker(clock)
        assert tracker.completion_rate("m") == float("inf")
        tracker.observe_shed(make_request(model="m"))  # not a completion
        assert tracker.completion_rate("m") == float("inf")
        clock["now"] = 2.0
        tracker.observe_completion(self.complete("m", latency=1.0))
        assert tracker.completion_rate("m") == pytest.approx(0.5)

    def test_pressure_zero_while_attaining_scales_with_weight(self):
        clock = {"now": 0.0}
        tracker = self.make_tracker(clock)
        assert tracker.pressure("m", SLO_CLASSES["interactive"]) == 0.0
        for i in range(10):
            tracker.observe_completion(self.complete("m", latency=9.0, rid=i))
        hot = tracker.pressure("m", SLO_CLASSES["interactive"])
        cool = tracker.pressure("m", SLO_CLASSES["batch"])
        assert hot > cool > 0.0
        assert hot / cool == pytest.approx(
            SLO_CLASSES["interactive"].weight / SLO_CLASSES["batch"].weight
        )


# ----------------------------------------------------------------------
# System integration: enable_qos
# ----------------------------------------------------------------------
class TestEnableQoS:
    @pytest.fixture
    def system(self):
        from repro.cluster.cluster import make_small_cluster
        from repro.core.context import ServingContext
        from repro.core.flexpipe import FlexPipeSystem
        from repro.models.zoo import BERT_21B, LLAMA2_7B
        from repro.simulation.engine import Simulator
        from repro.simulation.randomness import RandomStreams

        sim = Simulator()
        ctx = ServingContext.create(
            sim, make_small_cluster(sim), RandomStreams(3)
        )
        return FlexPipeSystem(ctx, [LLAMA2_7B, BERT_21B], initial_replicas=1)

    def test_disabled_by_default(self, system):
        assert system.qos_tracker is None
        assert system.qos_classes == {}
        from collections import deque

        for router in system.routers.values():
            assert isinstance(router.pending, deque)

    def test_enable_installs_priority_queues_and_tracker(self, system):
        system.enable_qos({"LLAMA2-7B": SLO_CLASSES["interactive"]})
        assert system.qos_tracker is not None
        for router in system.routers.values():
            assert isinstance(router.pending, PriorityPendingQueue)
        assert system.qos_class_of("LLAMA2-7B").name == "interactive"
        assert system.qos_class_of("BERT-21B").name == "standard"

    def test_enable_wires_autoscaler_pressure(self, system):
        system.enable_qos({"LLAMA2-7B": SLO_CLASSES["interactive"]})
        for scaler in system.autoscalers.values():
            assert scaler.slo_pressure is not None
            assert scaler.slo_pressure() == 0.0  # no data yet

    def test_enable_rejects_unknown_model(self, system):
        with pytest.raises(KeyError, match="does not serve"):
            system.enable_qos({"GPT-5": SLO_CLASSES["interactive"]})

    def test_pending_requests_survive_the_queue_swap(self, system):
        router = system.routers["LLAMA2-7B"]
        for i in range(3):
            router.submit(make_request(i, model="LLAMA2-7B"))
        assert len(router.pending) == 3  # no active replica yet
        system.enable_qos({"LLAMA2-7B": SLO_CLASSES["interactive"]})
        assert len(router.pending) == 3
        assert router.submitted == 3  # conservation counters untouched

    def test_completions_feed_the_tracker(self, system):
        system.enable_qos({"LLAMA2-7B": SLO_CLASSES["interactive"]})
        request = make_request(0, model="LLAMA2-7B", slo_class="interactive")
        request.completion_time = request.arrival_time + 1.0
        system._on_request_complete(request)
        assert system.qos_tracker.attainment("LLAMA2-7B") == 1.0

    def test_enable_arms_the_resource_arbiter(self, system):
        """enable_qos reaches the allocator: class ranks for deploy
        contention plus the per-tenant share caps."""
        allocator = system.ctx.allocator
        assert not allocator.arbitration_enabled
        system.enable_qos(
            {"LLAMA2-7B": SLO_CLASSES["interactive"]},
            share_caps={"BERT-21B": 0.4},
        )
        assert allocator.arbitration_enabled
        assert allocator.qos_priority_of("LLAMA2-7B") == 0
        assert allocator.qos_priority_of("BERT-21B") == 1  # standard default
        assert allocator.share_caps == {"BERT-21B": 0.4}

    def test_share_cap_for_unknown_model_rejected(self, system):
        with pytest.raises(KeyError, match="does not serve"):
            system.enable_qos(
                {"LLAMA2-7B": SLO_CLASSES["interactive"]},
                share_caps={"GPT-5": 0.5},
            )

    def test_enable_installs_priority_batchers(self, system):
        """Existing replicas swap to class-priority batch formation; the
        factory mints future replicas with it directly."""
        system.start()
        system.sim.run(until=120.0)  # initial loads complete
        replicas = system.all_replicas()
        assert replicas
        assert all(
            not isinstance(r.batcher.queue, PriorityPendingQueue) for r in replicas
        )
        system.enable_qos({"LLAMA2-7B": SLO_CLASSES["interactive"]})
        assert all(
            isinstance(r.batcher.queue, PriorityPendingQueue) for r in replicas
        )
        assert system.factory.batch_priority_of is not None
        # A classed request of the interactive tenant outranks the other
        # tenant's standard default inside the same replica.
        priority_of = system.factory.batch_priority_of
        assert priority_of(
            make_request(0, model="LLAMA2-7B", slo_class="interactive")
        ) < priority_of(make_request(1, model="BERT-21B"))

    def test_enable_wires_autoscaler_share_headroom(self, system):
        import math

        system.enable_qos(
            {"LLAMA2-7B": SLO_CLASSES["interactive"]},
            share_caps={"LLAMA2-7B": 0.25},
        )
        capped = system.autoscalers["LLAMA2-7B"]
        uncapped = system.autoscalers["BERT-21B"]
        assert capped.share_headroom is not None
        fleet = system.ctx.allocator.fleet_memory()
        assert capped.share_headroom() <= 0.25 * fleet
        assert math.isinf(uncapped.share_headroom())
