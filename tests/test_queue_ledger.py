"""The incremental queue ledger against its recompute.

Routers keep running sums of ``queue_length`` and ``len(batcher)`` over
their accepting replicas, and every router of a serving system feeds one
shared :class:`~repro.pipeline.router.FleetQueue`.  These tests hold both
to the recompute they replaced: after every engine event of seeded
scenario cells that drain, fail, reclaim, refactor live, run QoS priority
queues and DistServe decode pools, and through the auditor's
``queue-ledger`` invariant (including its power to catch a corrupted
counter).  The ``cv-window`` invariant, which holds the monitors' running
inter-arrival CV to its recompute, is checked here the same way.
"""

from __future__ import annotations

import pytest

from repro.pipeline.batching import BatcherConfig
from repro.pipeline.replica import PipelineReplica, ReplicaState
from repro.pipeline.router import FleetQueue, ModelRouter
from repro.cluster.allocator import GPUAllocator
from repro.partitioning.ladder import GranularityLadder
from repro.scenarios.driver import ScenarioCase, ScenarioDriver
from repro.scenarios.library import get_scenario
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workloads.requests import RequestSampler

ACTIVE = ReplicaState.ACTIVE


def _recompute(router) -> tuple[int, int]:
    """Σ queue_length and Σ len(batcher) over the accepting replicas."""
    queued = waiting = 0
    for replica in router.replicas:
        if replica.accepting:
            queued += replica.queue_length
            waiting += len(replica.batcher)
    return queued, waiting


def _ledger_mismatch(system) -> str | None:
    """Describe the first disagreement between ledger and recompute
    (None when every router and the fleet agree).

    Runs after every engine event, so the recompute reads the fields
    behind ``accepting`` and ``queue_length`` directly (about 2x faster
    on 220-tenant fleets); the auditor's ``queue-ledger`` check, asserted
    at the end of every cell, goes through the properties.
    """
    fleet = system.fleet_queue
    pending = queued = waiting = 0
    for name, router in system.all_routers().items():
        q = w = 0
        for replica in router.replicas:
            if replica.state is ACTIVE:
                batched = len(replica.batcher)
                q += batched + replica.inflight_requests
                w += batched
        if router.queued != q or router.waiting != w:
            return f"router {name}: {(router.queued, router.waiting)} != {(q, w)}"
        if router.fleet is not fleet:
            return f"router {name} is not on the system's fleet ledger"
        pending += len(router.pending)
        queued += q
        waiting += w
    if (fleet.pending, fleet.queued, fleet.waiting) != (pending, queued, waiting):
        return (
            f"fleet {(fleet.pending, fleet.queued, fleet.waiting)} != "
            f"{(pending, queued, waiting)}"
        )
    return None


# ----------------------------------------------------------------------
# Oracle: ledger == recompute after every engine event
# ----------------------------------------------------------------------
ORACLE_CELLS = [
    (scenario, system)
    for scenario in (
        "reclamation-storm",
        "failure-cascade",
        "priority-inversion",
        "elastic-contracts",
        "tenant-churn",
        "azure-replay-2019",
    )
    for system in ("FlexPipe", "DistServe")
]


@pytest.mark.parametrize(
    "scenario,system", ORACLE_CELLS, ids=[f"{s}-{y}" for s, y in ORACLE_CELLS]
)
def test_ledger_matches_recompute_after_every_event(monkeypatch, scenario, system):
    driver = ScenarioDriver(ScenarioCase(get_scenario(scenario).quick(), system, 3))
    checked = [0]
    mismatches: list[str] = []
    original = Simulator.schedule_at

    def schedule_at(sim, time, callback, *args):
        def checked_callback(*cargs):
            callback(*cargs)
            checked[0] += 1
            if not mismatches:
                found = _ledger_mismatch(driver.system)
                if found is not None:
                    mismatches.append(
                        f"after event {checked[0]} at t={sim.now:.6f} "
                        f"({getattr(callback, '__qualname__', callback)}): {found}"
                    )

        return original(sim, time, checked_callback, *args)

    monkeypatch.setattr(Simulator, "schedule_at", schedule_at)
    driver.start()
    report = driver.finish()
    assert mismatches == []
    assert checked[0] >= report.engine_events > 0
    assert _ledger_violations(report.violations) == []
    # The oracle saw real traffic, not an idle fleet.
    assert report.completed > 0


def test_oracle_cells_cover_every_mechanism():
    """The oracle cells' scripts drain, fail servers, reclaim GPUs and
    refactor live, and one runs QoS priority queues (every DistServe
    cell runs decode pools)."""
    actions = set()
    for scenario in {s for s, _ in ORACLE_CELLS}:
        spec = get_scenario(scenario)
        actions |= {event.action for event in spec.events}
        if any(m.slo_class for m in spec.models):
            actions.add("qos")
    assert {"drain", "fail_server", "reclaim", "refactor", "qos"} <= actions


# ----------------------------------------------------------------------
# Unit behaviour of the ledger
# ----------------------------------------------------------------------
@pytest.fixture
def sampler():
    return RequestSampler("LLAMA2-7B", RandomStreams(0).stream("r"))


@pytest.fixture
def make_replica(sim, small_cluster, llama_profile):
    plan = GranularityLadder(llama_profile, stage_counts=(2,)).plan(2)
    allocator = GPUAllocator(small_cluster)

    def make(batch=4, max_wait=5.0):
        mems = plan.memory_per_stage(batch, llama_profile.spec.kv_bytes_per_request)
        return PipelineReplica(
            sim,
            llama_profile,
            plan,
            allocator.allocate_stages(llama_profile.spec.name, mems),
            batcher_config=BatcherConfig(max_batch=batch, max_wait=max_wait),
            on_request_complete=lambda request: None,
        )

    return make


def _assert_exact(router: ModelRouter) -> None:
    assert (router.queued, router.waiting) == _recompute(router)


class TestRouterLedger:
    def test_submit_dispatch_and_completion_track_the_recompute(
        self, sim, make_replica, sampler
    ):
        router = ModelRouter(sim, "LLAMA2-7B")
        replica = make_replica(batch=4, max_wait=0.5)
        replica.activate()
        router.add(replica)
        for _ in range(6):  # one full batch dispatches, two wait
            router.submit(sampler.sample(0.0))
            _assert_exact(router)
        assert router.queued == 6 and router.waiting == 2
        assert router.fleet.queued == 6 and router.fleet.waiting == 2
        while sim.run(max_events=1):
            _assert_exact(router)
        assert (router.queued, router.waiting) == (0, 0)

    def test_add_and_remove_fold_current_counts(self, sim, make_replica, sampler):
        fleet = FleetQueue()
        source = ModelRouter(sim, "LLAMA2-7B")
        router = ModelRouter(sim, "LLAMA2-7B", fleet)
        replica = make_replica()
        replica.activate()
        for _ in range(3):
            replica.submit(sampler.sample(0.0))  # not yet on any router
        router.add(replica)
        assert (router.queued, router.waiting) == (3, 3)
        assert (fleet.queued, fleet.waiting) == (3, 3)
        router.remove(replica)
        assert (router.queued, router.waiting) == (0, 0)
        assert (fleet.queued, fleet.waiting) == (0, 0)
        assert replica.router is None
        source.add(replica)  # re-homed: counts follow the replica
        assert (source.queued, source.waiting) == (3, 3)

    def test_loading_replica_counts_from_activation(self, sim, make_replica, sampler):
        router = ModelRouter(sim, "LLAMA2-7B")
        replica = make_replica()
        router.add(replica)  # still LOADING: listed, not accepting
        assert replica.router is router
        replica.activate()
        router.submit(sampler.sample(0.0))
        _assert_exact(router)
        assert router.queued == 1

    def test_draining_takes_the_replica_out(self, sim, make_replica, sampler):
        router = ModelRouter(sim, "LLAMA2-7B")
        replica = make_replica(batch=2, max_wait=0.5)
        replica.activate()
        router.add(replica)
        for _ in range(3):
            router.submit(sampler.sample(0.0))
        replica.drain()  # still listed until released, no longer counted
        assert (router.queued, router.waiting) == (0, 0)
        while sim.run(max_events=1):  # in-flight work completes: no deltas
            _assert_exact(router)
        router.remove(replica)
        assert (router.queued, router.waiting) == (0, 0)

    def test_pending_is_read_live(self, sim, sampler):
        """Direct pushes into ``pending`` still count toward the router's
        queue signals (only the fleet's pending count is routed through
        ``submit``)."""
        router = ModelRouter(sim, "LLAMA2-7B")
        router.submit(sampler.sample(0.0))
        router.pending.extend(object() for _ in range(4))
        assert router.total_queue == router.waiting_count == 5
        assert router.fleet.pending == 1

    def test_routers_share_one_fleet_only_when_told(self, sim, sampler):
        fleet = FleetQueue()
        a = ModelRouter(sim, "A", fleet)
        b = ModelRouter(sim, "B", fleet)
        c = ModelRouter(sim, "C")
        for router in (a, b, c):
            router.submit(sampler.sample(0.0))
        assert fleet.total_queue == fleet.waiting_count == 2
        assert c.fleet is not fleet and c.fleet.pending == 1


# ----------------------------------------------------------------------
# System wiring and the auditor invariant
# ----------------------------------------------------------------------
def _driver(system: str) -> ScenarioDriver:
    """A paper-multi-burst cell stopped a fifth into its traffic, where
    every queue term is non-zero under both FlexPipe and DistServe."""
    driver = ScenarioDriver(
        ScenarioCase(get_scenario("paper-multi-burst").quick(), system, 0)
    )
    driver.start()
    driver.advance(driver.epoch + 0.2 * (driver.horizon - driver.epoch))
    fleet = driver.system.fleet_queue
    assert fleet.pending and fleet.queued and fleet.waiting
    return driver


def _ledger_violations(violations) -> list:
    return [v for v in violations if v.invariant == "queue-ledger"]


def test_distserve_decode_routers_feed_the_fleet():
    system = _driver("DistServe").system
    decode = system.decode_routers.values()
    assert all(r.fleet is system.fleet_queue for r in decode)
    assert any(r.total_queue for r in decode)
    assert system.total_queue() == sum(
        r.total_queue for r in system.all_routers().values()
    )
    # The queue sampler reads the fleet, so decode pools are in the series.
    system._sample()
    assert system.metrics.queue_samples[-1][1] == sum(
        r.waiting_count for r in system.all_routers().values()
    )


@pytest.mark.parametrize("system", ["FlexPipe", "DistServe"])
def test_auditor_flags_a_corrupted_router_counter(system):
    driver = _driver(system)
    auditor = driver.auditor
    assert _ledger_violations(auditor.audit_running()) == []
    router = next(r for r in driver.system.all_routers().values() if r.queued)
    router.queued += 1
    found = _ledger_violations(auditor.audit_running())
    assert len(found) == 1 and "running sums" in found[0].detail
    router.queued -= 1
    router.waiting -= 1
    found = _ledger_violations(auditor.audit_quiesce(expect_empty_allocator=False))
    assert len(found) == 1 and "running sums" in found[0].detail


def test_auditor_flags_corrupted_fleet_totals():
    driver = _driver("FlexPipe")
    fleet = driver.system.fleet_queue
    for field in ("pending", "queued", "waiting"):
        setattr(fleet, field, getattr(fleet, field) + 1)
        found = _ledger_violations(driver.auditor.audit_running())
        assert len(found) == 1 and found[0].detail.startswith("fleet totals")
        setattr(fleet, field, getattr(fleet, field) - 1)
    assert _ledger_violations(driver.auditor.audit_running()) == []


def test_auditor_flags_a_router_off_the_fleet_ledger():
    driver = _driver("FlexPipe")
    system = driver.system
    system.routers[next(iter(system.routers))].fleet = FleetQueue()
    found = _ledger_violations(driver.auditor.audit_running())
    assert len(found) == 1 and "does not feed" in found[0].detail


@pytest.mark.parametrize("system", ["FlexPipe", "DistServe"])
def test_auditor_flags_a_corrupted_cv_window(system):
    """The ``cv-window`` invariant holds every monitor's running CV to the
    Eq. 4 recompute over the same stamps."""
    driver = _driver(system)
    now = driver.system.sim.now

    def cv_violations():
        found = driver.auditor.audit_running()
        return [v for v in found if v.invariant == "cv-window"]

    assert cv_violations() == []
    model, monitor = next(
        (m, w) for m, w in driver.system.monitors.items() if w.cv(now) > 0
    )
    monitor.window._sq *= 1.01
    found = cv_violations()
    assert len(found) == 1 and f"monitor {model}:" in found[0].detail
