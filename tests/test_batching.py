"""Tests for the dynamic batcher's accumulation-window policy and
class-priority batch formation (the batcher on a priority queue)."""

from __future__ import annotations

import pytest

from repro.pipeline.batching import BatcherConfig, DynamicBatcher
from repro.qos.classes import request_priority
from repro.qos.queueing import PriorityPendingQueue
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import Request, RequestSampler


@pytest.fixture
def sampler():
    return RequestSampler("m", RandomStreams(0).stream("r"))


def make_batcher(sim, max_batch=8, max_wait=0.1, dispatchable=True):
    batches = []
    state = {"ok": dispatchable}
    batcher = DynamicBatcher(
        sim,
        BatcherConfig(max_batch=max_batch, max_wait=max_wait),
        can_dispatch=lambda: state["ok"],
        dispatch=batches.append,
    )
    return batcher, batches, state


class TestDynamicBatcher:
    def test_waits_for_window_before_dispatch(self, sim, sampler):
        batcher, batches, _ = make_batcher(sim, max_wait=0.1)
        batcher.enqueue(sampler.sample(0.0))
        sim.run(until=0.05)
        assert batches == []  # window not elapsed
        sim.run(until=0.2)
        assert len(batches) == 1

    def test_full_batch_dispatches_immediately(self, sim, sampler):
        batcher, batches, _ = make_batcher(sim, max_batch=4, max_wait=10.0)
        for _ in range(4):
            batcher.enqueue(sampler.sample(0.0))
        assert len(batches) == 1
        assert len(batches[0]) == 4

    def test_accumulates_within_window(self, sim, sampler):
        batcher, batches, _ = make_batcher(sim, max_batch=16, max_wait=0.1)
        for i in range(5):
            sim.schedule(i * 0.01, lambda: batcher.enqueue(sampler.sample(sim.now)))
        sim.run(until=0.5)
        assert len(batches) == 1
        assert len(batches[0]) == 5

    def test_respects_max_batch_on_overflow(self, sim, sampler):
        batcher, batches, _ = make_batcher(sim, max_batch=3, max_wait=0.1)
        for _ in range(7):
            batcher.enqueue(sampler.sample(0.0))
        sim.run(until=1.0)
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_blocked_entry_stage_defers_dispatch(self, sim, sampler):
        batcher, batches, state = make_batcher(sim, max_wait=0.05, dispatchable=False)
        batcher.enqueue(sampler.sample(0.0))
        sim.run(until=0.2)
        assert batches == []
        state["ok"] = True
        batcher.pump()
        assert len(batches) == 1

    def test_pump_holds_until_window_ripe(self, sim, sampler):
        batcher, batches, _ = make_batcher(sim, max_wait=0.5)
        batcher.enqueue(sampler.sample(0.0))
        batcher.pump()  # window not elapsed, queue below max
        assert batches == []

    def test_flush_drains_without_dispatch(self, sim, sampler):
        batcher, batches, _ = make_batcher(sim)
        batcher.enqueue(sampler.sample(0.0))
        drained = batcher.flush()
        sim.run(until=1.0)
        assert len(drained) == 1
        assert batches == []
        assert len(batcher) == 0

    def test_mean_batch_size_statistic(self, sim, sampler):
        batcher, _, _ = make_batcher(sim, max_batch=4, max_wait=0.01)
        assert batcher.mean_batch_size == 0.0
        for _ in range(8):
            batcher.enqueue(sampler.sample(0.0))
        sim.run(until=1.0)
        assert batcher.mean_batch_size == pytest.approx(4.0)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BatcherConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatcherConfig(max_wait=-1.0)

    def test_timer_rearms_for_followup_batches(self, sim, sampler):
        batcher, batches, _ = make_batcher(sim, max_batch=100, max_wait=0.1)
        batcher.enqueue(sampler.sample(0.0))
        sim.schedule(0.3, lambda: batcher.enqueue(sampler.sample(sim.now)))
        sim.run(until=1.0)
        assert len(batches) == 2


# ----------------------------------------------------------------------
# Class-priority batch formation (the QoS variant)
# ----------------------------------------------------------------------
def classed_request(rid, slo_class=None):
    return Request(
        rid=rid,
        model="m",
        arrival_time=0.0,
        prompt_tokens=100,
        output_tokens=10,
        slo_latency=5.0,
        slo_class=slo_class,
    )


def make_priority_batcher(
    sim, max_batch=8, max_wait=0.1, dispatchable=True, aging=None
):
    batcher, batches, state = make_batcher(sim, max_batch, max_wait, dispatchable)
    batcher.use_priority_queue(
        PriorityPendingQueue(lambda: sim.now, request_priority, aging=aging)
    )
    return batcher, batches, state


class TestPriorityBatcher:
    def test_batch_forms_in_class_priority_order(self, sim):
        """A partial batch pulls interactive work first: the last slots of
        a full batch drop the least urgent class, not the newest arrival."""
        batcher, batches, _ = make_priority_batcher(sim, max_batch=3, max_wait=0.1)
        batcher.enqueue(classed_request(0, "batch"))
        batcher.enqueue(classed_request(1, "batch"))
        batcher.enqueue(classed_request(2, "interactive"))
        sim.run(until=1.0)
        assert [r.rid for r in batches[0]] == [2, 0, 1]

    def test_fifo_within_a_class(self, sim):
        batcher, batches, _ = make_priority_batcher(sim, max_batch=8, max_wait=0.05)
        for i in range(4):
            batcher.enqueue(classed_request(i, "standard"))
        sim.run(until=1.0)
        assert [r.rid for r in batches[0]] == [0, 1, 2, 3]

    def test_single_class_matches_fifo_batcher(self, sim, sampler):
        """On an unclassed tenant the priority batcher is a no-op: batch
        contents and boundaries match the FIFO batcher exactly."""
        fifo, fifo_batches, _ = make_batcher(sim, max_batch=3, max_wait=0.1)
        prio, prio_batches, _ = make_priority_batcher(sim, max_batch=3, max_wait=0.1)
        requests = [sampler.sample(0.0) for _ in range(7)]
        for request in requests:
            fifo.enqueue(request)
            prio.enqueue(request)
        sim.run(until=1.0)
        assert [[r.rid for r in b] for b in prio_batches] == [
            [r.rid for r in b] for b in fifo_batches
        ]

    def test_overflow_defers_the_lowest_class(self, sim):
        """When the backlog exceeds one batch, the overflow left behind is
        the least urgent class — regardless of arrival order."""
        batcher, batches, state = make_priority_batcher(
            sim, max_batch=2, max_wait=0.05, dispatchable=False
        )
        batcher.enqueue(classed_request(0, "best_effort"))
        batcher.enqueue(classed_request(1, "interactive"))
        batcher.enqueue(classed_request(2, "standard"))
        state["ok"] = True
        sim.run(until=1.0)
        assert [r.rid for r in batches[0]] == [1, 2]
        assert [r.rid for r in batches[1]] == [0]

    def test_aging_promotes_a_starving_batch_request(self, sim):
        batcher, batches, _ = make_priority_batcher(
            sim, max_batch=1, max_wait=0.1, dispatchable=False, aging=5.0
        )
        batcher.enqueue(classed_request(0, "batch"))
        sim.run(until=11.0)  # batch waited 11 s -> effective rank 0
        batcher.enqueue(classed_request(1, "interactive"))
        assert [r.rid for r in batcher.flush()] == [0, 1]

    def test_flush_returns_everything_and_empties(self, sim):
        batcher, batches, _ = make_priority_batcher(
            sim, max_batch=8, max_wait=10.0
        )
        for i, cls in enumerate(("batch", "interactive", None)):
            batcher.enqueue(classed_request(i, cls))
        drained = batcher.flush()
        assert {r.rid for r in drained} == {0, 1, 2}
        assert len(batcher) == 0
        sim.run(until=1.0)
        assert batches == []

    def test_window_keyed_to_globally_oldest_request(self, sim):
        """The max_wait window follows the oldest *enqueue*, even when a
        later, more urgent class sits at the front of the pop order."""
        batcher, batches, _ = make_priority_batcher(sim, max_batch=8, max_wait=0.2)
        batcher.enqueue(classed_request(0, "batch"))
        sim.schedule(0.15, lambda: batcher.enqueue(classed_request(1, "interactive")))
        sim.run(until=0.25)  # 0.2 s after the *batch* request arrived
        assert len(batches) == 1
        assert [r.rid for r in batches[0]] == [1, 0]

    def test_bad_aging_rejected(self, sim):
        with pytest.raises(ValueError, match="aging"):
            make_priority_batcher(sim, aging=0.0)

    def test_swap_keeps_the_window_of_queued_requests(self, sim):
        """Requests migrate with their enqueue times: a request queued at
        t=0 still dispatches when its own window closes, not one window
        after the swap."""
        batcher, batches, _ = make_batcher(sim, max_batch=8, max_wait=0.2)
        batcher.enqueue(classed_request(0, "batch"))
        sim.run(until=0.15)
        batcher.use_priority_queue(
            PriorityPendingQueue(lambda: sim.now, request_priority)
        )
        sim.run(until=0.25)
        assert [[r.rid for r in b] for b in batches] == [[0]]


class TestUsePriorityBatcher:
    """Mid-run migration of a replica's batcher (ServingSystem.enable_qos)."""

    def _replica(self, ctx, llama_profile):
        from repro.partitioning.ladder import GranularityLadder
        from repro.pipeline.replica import PipelineReplica

        ladder = GranularityLadder(llama_profile, stage_counts=(2,))
        plan = ladder.plan(2)
        mems = plan.memory_per_stage(4, llama_profile.spec.kv_bytes_per_request)
        reservations = ctx.allocator.allocate_stages("LLAMA2-7B", mems)
        return PipelineReplica(
            ctx.sim,
            llama_profile,
            plan,
            reservations,
            batcher_config=BatcherConfig(max_batch=4, max_wait=0.5),
            on_request_complete=lambda r: None,
        )

    def test_queue_and_counters_survive_the_swap(self, ctx, llama_profile):
        replica = self._replica(ctx, llama_profile)
        replica.activate()
        for i, cls in enumerate(("batch", "interactive", "batch")):
            replica.submit(classed_request(i, cls))
        old = replica.batcher.queue
        formed = replica.batcher.batches_formed
        replica.use_priority_batcher(request_priority, aging=10.0)
        assert isinstance(replica.batcher.queue, PriorityPendingQueue)
        assert replica.batcher.queue is not old
        assert len(replica.batcher) == 3
        assert replica.batcher.batches_formed == formed
        # Enqueue times migrated: the oldest request still anchors the
        # accumulation window.
        assert replica.batcher.queue.oldest() == 0.0
        # The migrated queue still serves: nothing lost across the swap.
        ctx.sim.run(until=5.0)
        assert replica.completed_requests == 3

    def test_swap_is_idempotent(self, ctx, llama_profile):
        replica = self._replica(ctx, llama_profile)
        replica.use_priority_batcher(request_priority)
        swapped = replica.batcher.queue
        replica.use_priority_batcher(request_priority)
        assert replica.batcher.queue is swapped
