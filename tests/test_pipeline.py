"""Tests for stages, replicas, the router, and inflight stage swaps."""

from __future__ import annotations

import pytest

from repro.cluster.allocator import GPUAllocator
from repro.cluster.cluster import make_small_cluster
from repro.partitioning.batch_scaling import activation_bytes
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.pipeline.router import ModelRouter
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import RequestSampler


@pytest.fixture
def llama_ladder(llama_profile):
    return GranularityLadder(llama_profile, stage_counts=(1, 2, 4))


def deploy_replica(sim, cluster, profile, plan, completed, batch=8, max_wait=0.01):
    allocator = GPUAllocator(cluster)
    mems = plan.memory_per_stage(batch, profile.spec.kv_bytes_per_request)
    reservations = allocator.allocate_stages(profile.spec.name, mems)
    replica = PipelineReplica(
        sim,
        profile,
        plan,
        reservations,
        batcher_config=BatcherConfig(max_batch=batch, max_wait=max_wait),
        on_request_complete=completed.append,
    )
    return replica, allocator


@pytest.fixture
def sampler():
    return RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))


class TestReplicaLifecycle:
    def test_loading_replica_rejects_submissions(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), []
        )
        assert replica.state is ReplicaState.LOADING
        with pytest.raises(RuntimeError):
            replica.submit(sampler.sample(0.0))

    def test_requests_complete_with_full_breakdown(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        for _ in range(5):
            replica.submit(sampler.sample(sim.now))
        sim.run_until_idle()
        assert len(completed) == 5
        for req in completed:
            assert req.completed
            assert req.exec_time > 0
            assert req.comm_time > 0  # 2 stages -> 1 hop
            assert req.queue_time >= 0
            latency = req.latency
            assert latency == pytest.approx(
                req.queue_time + req.exec_time + req.comm_time, rel=1e-6
            )
            assert req.prefill_done is not None
            assert req.prefill_done <= req.completion_time

    def test_single_stage_replica_has_no_comm(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(1), completed
        )
        replica.activate()
        replica.submit(sampler.sample(0.0))
        sim.run_until_idle()
        assert completed[0].comm_time == 0.0

    def test_deeper_pipeline_has_more_comm(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        def run(plan):
            from repro.simulation.engine import Simulator
            from repro.cluster.cluster import make_small_cluster

            local_sim = Simulator()
            cluster = make_small_cluster(local_sim, n_servers=6, gpus_per_server=2)
            completed = []
            replica, _ = deploy_replica(
                local_sim, cluster, llama_profile, plan, completed
            )
            replica.activate()
            local_sampler = RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))
            replica.submit(local_sampler.sample(0.0))
            local_sim.run_until_idle()
            return completed[0].comm_time

        assert run(llama_ladder.plan(4)) > run(llama_ladder.plan(2))

    def test_drain_completes_inflight_then_releases(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        released = []
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.on_released = released.append
        replica.activate()
        replica.submit(sampler.sample(0.0))
        replica.drain()
        assert replica.state is ReplicaState.DRAINING
        sim.run_until_idle()
        assert len(completed) == 1
        assert replica.state is ReplicaState.RELEASED
        assert released == [replica]

    def test_drain_idle_replica_releases_immediately(
        self, sim, small_cluster, llama_profile, llama_ladder
    ):
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), []
        )
        replica.activate()
        replica.drain()
        assert replica.state is ReplicaState.RELEASED

    def test_double_activate_rejected(
        self, sim, small_cluster, llama_profile, llama_ladder
    ):
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), []
        )
        replica.activate()
        with pytest.raises(RuntimeError):
            replica.activate()

    def test_gpu_busy_time_accumulates(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        replica.submit(sampler.sample(0.0))
        sim.run_until_idle()
        assert all(s.gpu.busy_seconds > 0 for s in replica.stages)


class TestBatchFormation:
    """A ``BatchJob``'s times are the per-stage cost model at the batch's
    mean prompt and output lengths."""

    @pytest.mark.parametrize("n_stages", [2, 4, 32])
    def test_job_times_follow_the_cost_model(self, sim, llama_profile, n_stages):
        plan = GranularityLadder(llama_profile, stage_counts=(n_stages,)).plan(
            n_stages
        )
        cluster = make_small_cluster(sim, n_servers=16, gpus_per_server=2)
        replica, _ = deploy_replica(sim, cluster, llama_profile, plan, [])
        sampler = RequestSampler("LLAMA2-7B", RandomStreams(3).stream("r"))
        requests = [sampler.sample(0.0) for _ in range(5)]
        job = replica._make_job(requests)

        cm = llama_profile.cost_model
        batch = len(requests)
        prompt = sum(r.prompt_tokens for r in requests) / batch
        out = sum(r.output_tokens for r in requests) / batch
        prefill = [
            cm.prefill_time(s.profile.flops_per_token, batch * prompt)
            for s in plan.stages
        ]
        busy = [
            p + out * cm.decode_iter_time(s.param_bytes, batch)
            for p, s in zip(prefill, plan.stages)
        ]
        handoff = []
        for s in plan.stages[:-1]:
            base = 128 * s.profile.boundary_act_bytes_per_token
            handoff.append(
                cm.hop_time(activation_bytes(base * prompt, batch))
                + out * cm.hop_time(activation_bytes(base, batch))
            )
        assert len(job.handoff) == n_stages - 1
        assert job.stage_prefill == pytest.approx(prefill, rel=1e-12)
        assert job.stage_busy == pytest.approx(busy, rel=1e-12)
        assert job.handoff == pytest.approx(handoff, rel=1e-12)
        assert job.requests is requests


class TestInflightSwap:
    def test_swap_moves_new_batches_to_new_chain(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        replica, allocator = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        replica.submit(sampler.sample(0.0))
        sim.run(max_events=2)  # job in flight on the old chain

        new_plan = llama_ladder.plan(4)
        mems = new_plan.memory_per_stage(8, llama_profile.spec.kv_bytes_per_request)
        new_res = [
            allocator.reserve_on("LLAMA2-7B", gpu, mem, allow_same_model=True)
            for gpu, mem in zip(
                [g for g in small_cluster.gpus if not g.hosts_model("LLAMA2-7B")][:4],
                mems,
            )
        ]
        retired = []
        replica.on_stage_retired = retired.append
        old_stages = replica.swap_stages(new_plan, new_res)
        assert replica.plan.n_stages == 4
        # New submission runs on the 4-stage chain.
        replica.submit(sampler.sample(sim.now))
        sim.run_until_idle()
        assert len(completed) == 2
        # Old chain fully retired after its in-flight job finished.
        assert set(retired) == set(old_stages)
        assert replica.reconfig_count == 1

    def test_swap_with_idle_chain_retires_immediately(
        self, sim, small_cluster, llama_profile, llama_ladder
    ):
        completed = []
        replica, allocator = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        new_plan = llama_ladder.plan(1)
        mems = new_plan.memory_per_stage(8, llama_profile.spec.kv_bytes_per_request)
        free = [g for g in small_cluster.gpus if not g.hosts_model("LLAMA2-7B")]
        new_res = [allocator.reserve_on("LLAMA2-7B", free[0], mems[0])]
        retired = []
        replica.on_stage_retired = retired.append
        old = replica.swap_stages(new_plan, new_res)
        assert set(retired) == set(old)

    def test_no_request_lost_across_repeated_swaps(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        """The paper's zero-interruption guarantee: every submitted request
        completes across an arbitrary refactoring sequence."""
        completed = []
        replica, allocator = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(1), completed, batch=4
        )
        replica.activate()
        submitted = 0

        def swap_to(n_stages):
            plan = llama_ladder.plan(n_stages)
            mems = plan.memory_per_stage(4, llama_profile.spec.kv_bytes_per_request)
            pool = [g for g in small_cluster.gpus]
            new_res = []
            for mem in mems:
                gpu = max(pool, key=lambda g: g.free_memory)
                pool.remove(gpu)
                new_res.append(
                    allocator.reserve_on("LLAMA2-7B", gpu, mem, allow_same_model=True)
                )
            replica.on_stage_retired = lambda s: (
                None if s.reservation.released else allocator.release(s.reservation)
            )
            replica.swap_stages(plan, new_res)

        for step, n in enumerate((2, 4, 2, 1)):
            for _ in range(3):
                replica.submit(sampler.sample(sim.now))
                submitted += 1
            sim.schedule(0.1 * (step + 1), swap_to, n)
            sim.run(until=sim.now + 0.5)
        sim.run_until_idle()
        assert len(completed) == submitted

    def test_swap_on_draining_replica_rejected(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        """A dying replica must never acquire a fresh chain."""
        completed = []
        replica, allocator = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        replica.submit(sampler.sample(0.0))
        sim.run(max_events=2)  # job in flight keeps it DRAINING
        replica.drain()
        assert replica.state is ReplicaState.DRAINING
        new_plan = llama_ladder.plan(1)
        mems = new_plan.memory_per_stage(8, llama_profile.spec.kv_bytes_per_request)
        free = [g for g in small_cluster.gpus if not g.hosts_model("LLAMA2-7B")]
        new_res = [allocator.reserve_on("LLAMA2-7B", free[0], mems[0])]
        with pytest.raises(RuntimeError):
            replica.swap_stages(new_plan, new_res)

    def test_untracked_chain_completion_is_an_anomaly_not_a_negative(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        """A job completing on a chain whose counter vanished must be
        recorded as an anomaly — not silently resurrect the counter or
        drive it negative."""
        completed = []
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        replica.submit(sampler.sample(0.0))
        sim.run(max_events=2)
        assert replica.inflight_jobs == 1
        replica._chain_jobs.clear()  # simulate a lost chain entry
        sim.run_until_idle()
        assert len(completed) == 1  # the request still completes
        assert replica.anomalies  # ...but the inconsistency is recorded
        assert all(v >= 0 for v in replica._chain_jobs.values())

    def test_state_history_records_full_lifecycle(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        replica.submit(sampler.sample(0.0))
        sim.run(max_events=2)
        replica.drain()
        sim.run_until_idle()
        assert [s for _, s in replica.state_history] == [
            ReplicaState.LOADING,
            ReplicaState.ACTIVE,
            ReplicaState.DRAINING,
            ReplicaState.RELEASED,
        ]
        assert replica.anomalies == []


class TestRouter:
    def test_requests_pend_without_active_replicas(self, sim, sampler):
        router = ModelRouter(sim, "LLAMA2-7B")
        router.submit(sampler.sample(0.0))
        assert len(router.pending) == 1
        assert router.total_queue == 1

    def test_add_drains_pending(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        router = ModelRouter(sim, "LLAMA2-7B")
        router.submit(sampler.sample(0.0))
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        router.add(replica)
        sim.run_until_idle()
        assert len(completed) == 1
        assert len(router.pending) == 0

    def test_jsq_balances_load(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        completed = []
        router = ModelRouter(sim, "LLAMA2-7B")
        replicas = []
        for _ in range(2):
            replica, _ = deploy_replica(
                sim, small_cluster, llama_profile, llama_ladder.plan(2), completed,
                batch=4, max_wait=5.0,
            )
            replica.activate()
            router.add(replica)
            replicas.append(replica)
        for _ in range(8):
            router.submit(sampler.sample(0.0))
        queues = [r.queue_length for r in replicas]
        assert abs(queues[0] - queues[1]) <= 1

    def test_jsq_normalises_by_effective_batch(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        """A replica deployed degraded (halved batch under fragmentation)
        must attract proportionally less load than a full one, even though
        both share the same partition plan."""
        plan = llama_ladder.plan(2)
        degraded, _ = deploy_replica(
            sim, small_cluster, llama_profile, plan, [], batch=8, max_wait=5.0
        )
        full, _ = deploy_replica(
            sim, small_cluster, llama_profile, plan, [], batch=16, max_wait=5.0
        )
        router = ModelRouter(sim, "LLAMA2-7B")
        for replica in (degraded, full):  # degraded first: ties would pick it
            replica.activate()
            router.add(replica)
        for replica in (degraded, full):
            for _ in range(6):
                replica.submit(sampler.sample(0.0))
        # Equal absolute queues, but 6/8 of a degraded batch is deeper
        # congestion than 6/16 of a full one.
        assert degraded.queue_length == full.queue_length == 6
        assert router._pick() is full

    def test_router_reconciles_submitted_routed_pending(
        self, sim, small_cluster, llama_profile, llama_ladder, sampler
    ):
        router = ModelRouter(sim, "LLAMA2-7B")
        router.submit(sampler.sample(0.0))  # pends (no replica yet)
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), []
        )
        replica.activate()
        router.add(replica)  # drains the pending request
        router.submit(sampler.sample(0.0))
        assert router.submitted == 2
        assert router.routed + len(router.pending) == router.submitted

    def test_remove_stops_routing(self, sim, small_cluster, llama_profile, llama_ladder, sampler):
        completed = []
        router = ModelRouter(sim, "LLAMA2-7B")
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), completed
        )
        replica.activate()
        router.add(replica)
        router.remove(replica)
        router.submit(sampler.sample(0.0))
        assert len(router.pending) == 1

    def test_gateway_update_counter(self, sim, small_cluster, llama_profile, llama_ladder):
        router = ModelRouter(sim, "LLAMA2-7B")
        replica, _ = deploy_replica(
            sim, small_cluster, llama_profile, llama_ladder.plan(2), []
        )
        replica.activate()
        router.add(replica)
        router.add(replica)  # idempotent
        router.remove(replica)
        assert router.gateway_updates == 2
