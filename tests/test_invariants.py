"""Lifecycle invariant auditor + seeded chaos audit (tier-1).

The chaos tests replay fixed seeds of the :func:`chaos_spec` generator
through the scenario driver, so they are deterministic; the auditor
tests poison a known-clean run and assert each invariant fires.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.allocator import AllocationError, GPUAllocator
from repro.cluster.cluster import make_small_cluster
from repro.core.context import ServingContext
from repro.core.flexpipe import FlexPipeSystem
from repro.experiments.runner import ExperimentRunner
from repro.experiments.systems import SYSTEMS
from repro.models.zoo import LLAMA2_7B
from repro.pipeline.replica import ReplicaState
from repro.scenarios.driver import ScenarioCase, run_scenario_case
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import ModelScript
from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.transfer.links import GB, FairShareLink
from repro.validation import InvariantAuditor, InvariantViolationError
from repro.validation.chaos import PAPER_FLEETS, audit_seeds, chaos_spec
from repro.workloads.arrivals import make_arrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.requests import LengthDistribution, RequestSampler

CHAOS_SEEDS = (0, 1, 2)
SEQUENTIAL = ExperimentRunner(jobs=1, use_cache=False)


def run_chaos(system: str, seed: int, spec=None):
    """One chaos case: ``chaos_spec(seed)`` (or ``spec``) on ``system``."""
    spec = chaos_spec(seed) if spec is None else spec
    return run_scenario_case(ScenarioCase(spec, system, seed))


def offered_by_model(report) -> dict[str, int]:
    return {m: t.offered for m, t in report.tenants.items()}


# ----------------------------------------------------------------------
# Chaos audit (fixed seeds, every system)
# ----------------------------------------------------------------------
class TestChaosHarness:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_seeded_interleavings_hold_all_invariants(self, system, seed):
        report = run_chaos(system, seed)
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.offered > 0

    def test_chaos_actually_exercises_the_lifecycle(self):
        """The schedule must drive drains, reclaims and scale-outs — a
        quiet schedule would vacuously satisfy every invariant."""
        merged: dict[str, int] = {}
        for seed in range(4):
            for key, count in run_chaos("FlexPipe", seed).events.items():
                merged[key] = merged.get(key, 0) + count
        assert merged.get("drain:ok", 0) > 0
        assert merged.get("reclaim:ok", 0) > 0
        assert merged.get("scale_out:ok", 0) > 0

    def test_refactor_interleavings_occur_on_flexpipe(self):
        """At least one seed must land a live refactor so the audit
        genuinely covers the inflight-refactoring paths."""
        assert any(
            run_chaos("FlexPipe", seed).events.get("refactor:ok", 0) > 0
            for seed in range(6)
        )

    def test_audit_seeds_fans_out_and_reports(self):
        reports = audit_seeds(seeds=2, systems=["FlexPipe"], runner=SEQUENTIAL)
        assert len(reports) == 2
        assert [r.seed for r in reports] == [0, 1]
        assert [r.scenario for r in reports] == ["chaos-0", "chaos-1"]
        assert all(r.ok for r in reports)

    def test_audit_seeds_mixes_in_paper_cluster_cases(self):
        """Every 4th seed runs the multi-model paper-cluster shape, so
        ``repro audit`` covers the paper's fragmented multiplexing
        setting, not just one model on the small cluster."""
        kinds = [(s.cluster, s.model_names) for s in map(chaos_spec, range(4))]
        assert kinds[:3] == [("small", ("LLAMA2-7B",))] * 3
        assert kinds[3][0] == "paper" and len(kinds[3][1]) >= 2
        reports = audit_seeds(seeds=4, systems=["FlexPipe"], runner=SEQUENTIAL)
        assert set(reports[3].tenants) == set(kinds[3][1])
        assert all(r.ok for r in reports), [
            str(v) for r in reports for v in r.violations
        ]

    def test_duration_pass_through_survives_the_paper_mix(self):
        """``duration`` reaches every generated spec, paper seeds too,
        and the schedule stays inside the traffic window."""
        specs = [chaos_spec(seed, duration=10.0) for seed in range(4)]
        assert specs[3].cluster == "paper"  # the mix still applies
        for spec in specs:
            assert all(
                seg.duration == 10.0 for m in spec.models for seg in m.segments
            )
            assert all(e.at < 10.0 for e in spec.events)
        reports = audit_seeds(
            seeds=1, systems=["FlexPipe"], runner=SEQUENTIAL, duration=10.0
        )
        assert reports[0].ok and reports[0].offered > 0

    def test_specs_are_system_independent_and_reproducible(self):
        assert chaos_spec(5) == chaos_spec(5)
        assert chaos_spec(5) != chaos_spec(6)


class TestPaperClusterChaos:
    """Multi-model paper-cluster chaos: fixed seeds, tier-1 subset.

    Seeds 3 and 7 rotate through different :data:`PAPER_FLEETS`; the full
    grid runs in CI via ``repro audit``.
    """

    @pytest.mark.parametrize("system", ("FlexPipe", "DistServe"))
    @pytest.mark.parametrize("seed", (3, 7))
    def test_paper_multimodel_interleavings_hold_invariants(self, system, seed):
        spec = chaos_spec(seed)
        assert spec.cluster == "paper" and len(spec.models) >= 2
        report = run_chaos(system, seed, spec)
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.offered > 0

    def test_fleets_rotate_and_cover_the_zoo_breadth(self):
        fleets = {
            s.model_names
            for s in map(chaos_spec, range(24))
            if s.cluster == "paper"
        }
        assert len(fleets) == len(PAPER_FLEETS)
        assert any("OPT-66B" in fleet for fleet in fleets)

    def test_multi_model_traffic_reaches_every_tenant(self):
        """Each co-resident tenant must actually offer and complete
        requests — a fleet where only the primary sees traffic would
        vacuously pass the invariants."""
        spec = chaos_spec(3)
        report = run_chaos("FlexPipe", 3, spec)
        assert report.ok
        assert set(report.tenants) == set(spec.model_names)
        for model in spec.model_names:
            assert report.tenants[model].offered > 0, model
            assert report.tenants[model].completed > 0, model

    def test_audit_seeds_rejects_unknown_system(self):
        with pytest.raises(KeyError):
            audit_seeds(seeds=1, systems=["NoSuchSystem"])

    def test_crash_inside_a_case_becomes_an_attributed_violation(
        self, monkeypatch
    ):
        """A regression that makes an interleaving raise must surface as
        a (system, seed, harness-crash) finding, not abort the audit."""
        import repro.scenarios.driver as driver_mod

        def boom(self):
            raise RuntimeError("synthetic crash")

        monkeypatch.setattr(driver_mod.ScenarioDriver, "run", boom)
        report = run_chaos("FlexPipe", 3)
        assert not report.ok
        assert report.violations[0].invariant == "harness-crash"
        assert "synthetic crash" in report.violations[0].detail
        assert (report.system, report.seed) == ("FlexPipe", 3)


# ----------------------------------------------------------------------
# Auditor detection power (poisoned runs must be flagged)
# ----------------------------------------------------------------------
@pytest.fixture
def clean_run():
    """A short FlexPipe run, shut down and quiesced — audits clean."""
    sim = Simulator()
    streams = RandomStreams(7)
    cluster = make_small_cluster(sim)
    ctx = ServingContext.create(sim, cluster, streams)
    system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
    system.start()
    sim.run(until=60.0)
    sampler = RequestSampler(
        LLAMA2_7B.name,
        streams.stream("requests"),
        prompt=LengthDistribution(median=128, sigma=0.6, lo=16, hi=1024),
        output=LengthDistribution(median=8, sigma=0.7, lo=1, hi=64),
    )
    generator = WorkloadGenerator(
        sim, make_arrivals(5.0, 1.0, streams.stream("arrivals")),
        sampler, system.submit, 10.0,
    )
    sim.run(until=90.0)
    system.shutdown()
    sim.run_until_idle()
    auditor = InvariantAuditor(system, generators=[generator])
    return sim, ctx, system, auditor


def invariants_of(violations):
    return {v.invariant for v in violations}


class TestAuditorDetection:
    def test_clean_run_audits_clean(self, clean_run):
        _, _, _, auditor = clean_run
        assert auditor.audit_quiesce() == []

    def test_assert_clean_raises_with_details(self, clean_run):
        _, ctx, _, auditor = clean_run
        gpu = ctx.cluster.gpus[0]
        ctx.allocator.reserve_on("leaky-model", gpu, 1024.0)
        with pytest.raises(InvariantViolationError) as err:
            auditor.assert_clean()
        assert "allocator-empty" in str(err.value)

    def test_leaked_reservation_flagged(self, clean_run):
        _, ctx, _, auditor = clean_run
        ctx.allocator.reserve_on("leaky-model", ctx.cluster.gpus[0], 2048.0)
        assert "allocator-empty" in invariants_of(auditor.audit_quiesce())

    def test_reservation_without_gpu_backing_flagged(self, clean_run):
        _, ctx, _, auditor = clean_run
        gpu = ctx.cluster.gpus[0]
        res = ctx.allocator.reserve_on("m", gpu, 4096.0)
        gpu.release(res.res_id)  # GPU side vanishes, allocator side stays
        assert "memory-accounting" in invariants_of(auditor.audit_quiesce())

    def test_stale_serving_mem_cache_flagged(self, clean_run):
        _, ctx, _, auditor = clean_run
        gpu = ctx.cluster.gpus[0]
        gpu._serving_mem = gpu.serving_mem + 1.0  # a write that missed it
        found = auditor.audit_quiesce()
        assert "memory-accounting" in invariants_of(found)
        assert any(gpu.gid in v.detail for v in found)

    def test_reservation_below_footprint_flagged(self):
        sim = Simulator()
        ctx = ServingContext.create(sim, make_small_cluster(sim), RandomStreams(7))
        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
        system.start()
        sim.run(until=60.0)
        auditor = InvariantAuditor(system)
        assert auditor.audit_running() == []
        (replica,) = system.all_replicas()
        reservation = replica.stages[-1].reservation
        need = replica.plan.memory_per_stage(
            replica.max_batch, LLAMA2_7B.kv_bytes_per_request
        )[-1]
        assert reservation.nbytes >= need  # deploys reserve the footprint
        ctx.allocator.resize(reservation, need - 1024.0)  # a trim too deep
        found = auditor.audit_running()
        assert invariants_of(found) == {"reservation-footprint"}
        assert reservation.res_id in found[0].detail

    def test_lost_request_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        assert system.metrics.records, "fixture must have completed requests"
        system.metrics.records.pop()
        assert "request-conservation" in invariants_of(auditor.audit_quiesce())

    def test_double_completion_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        system.metrics.records.append(system.metrics.records[0])
        found = invariants_of(auditor.audit_quiesce())
        assert "completion-uniqueness" in found

    def test_router_mismatch_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        next(iter(system.routers.values())).submitted += 1
        assert "router-reconciliation" in invariants_of(auditor.audit_quiesce())

    def test_routed_but_never_accepted_flagged(self, clean_run):
        """A request lost between gateway and replica breaks the
        cross-layer routed == accepted reconciliation."""
        _, _, system, auditor = clean_run
        router = next(iter(system.routers.values()))
        router.submitted += 1
        router.routed += 1  # router books are internally consistent...
        found = invariants_of(auditor.audit_quiesce())
        assert "router-reconciliation" in found  # ...the cross-check isn't

    def test_replica_losing_accepted_request_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        system.factory.replicas[0].accepted_requests += 1
        assert "replica-conservation" in invariants_of(auditor.audit_quiesce())

    def test_illegal_transition_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        replica = system.factory.replicas[0]
        replica.state_history.append((0.0, ReplicaState.ACTIVE))
        found = invariants_of(auditor.audit_quiesce())
        assert "replica-state-machine" in found

    def test_replica_anomaly_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        system.factory.replicas[0].anomalies.append("synthetic anomaly")
        assert "replica-anomalies" in invariants_of(auditor.audit_quiesce())

    def test_zombie_router_entry_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        router = next(iter(system.routers.values()))
        router.replicas.append(system.factory.replicas[0])  # RELEASED by now
        assert "router-hygiene" in invariants_of(auditor.audit_quiesce())

    def test_phantom_chain_jobs_flagged(self, clean_run):
        _, _, system, auditor = clean_run
        replica = system.factory.replicas[0]
        replica._chain_jobs[12345] = 2
        assert "chain-accounting" in invariants_of(auditor.audit_quiesce())


# ----------------------------------------------------------------------
# Shutdown is a full teardown (the no-leak invariant's precondition)
# ----------------------------------------------------------------------
class TestShutdownTeardown:
    def test_shutdown_releases_every_reservation(self, clean_run):
        _, ctx, system, _ = clean_run
        assert ctx.allocator.live == {}
        assert all(g.stage_allocations == {} for g in ctx.cluster.gpus)
        assert all(
            r.state is ReplicaState.RELEASED for r in system.factory.replicas
        )

    def test_shutdown_drains_loading_replicas_without_late_activation(self):
        """A replica reclaimed mid-load must not activate when its load
        completes — the reservations are already back with the allocator."""
        sim = Simulator()
        streams = RandomStreams(11)
        cluster = make_small_cluster(sim)
        ctx = ServingContext.create(sim, cluster, streams)
        system = FlexPipeSystem(ctx, [LLAMA2_7B], initial_replicas=1)
        system.start()  # replicas still LOADING
        assert any(
            r.state is ReplicaState.LOADING for r in system.factory.replicas
        )
        system.shutdown()
        sim.run_until_idle()  # in-flight loads complete after the drain
        assert ctx.allocator.live == {}
        for replica in system.factory.replicas:
            assert replica.state is ReplicaState.RELEASED
            assert replica.anomalies == []
            assert replica.activated_at is None  # never served


# ----------------------------------------------------------------------
# Allocator balance property (seeded reserve/release/resize sequences)
# ----------------------------------------------------------------------
class TestAllocatorBalanceProperty:
    def _assert_balanced(self, allocator, cluster):
        by_gpu: dict[str, float] = {}
        for res in allocator.live.values():
            assert not res.released
            by_gpu[res.gpu.gid] = by_gpu.get(res.gpu.gid, 0.0) + res.nbytes
        for gpu in cluster.gpus:
            expect = by_gpu.get(gpu.gid, 0.0)
            assert gpu.serving_mem == pytest.approx(expect, abs=1e-3)
            assert gpu.used_memory <= gpu.memory + 1e-3
        assert allocator.total_reserved() == pytest.approx(
            sum(by_gpu.values()), abs=1e-3
        )

    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_random_op_sequences_keep_exact_accounting(self, seed):
        sim = Simulator()
        cluster = make_small_cluster(sim, n_servers=3, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        rng = RandomStreams(seed).stream("allocator-fuzz")
        gib = 2**30
        live: list = []
        for _ in range(300):
            op = rng.choice(["reserve", "stages", "release", "resize"])
            try:
                if op == "reserve":
                    gpu = cluster.gpus[int(rng.integers(len(cluster.gpus)))]
                    model = f"m{int(rng.integers(3))}"
                    live.append(
                        allocator.reserve_on(
                            model,
                            gpu,
                            float(rng.uniform(1, 30)) * gib,
                            allow_same_model=bool(rng.random() < 0.5),
                        )
                    )
                elif op == "stages":
                    mems = [
                        float(rng.uniform(1, 20)) * gib
                        for _ in range(int(rng.integers(1, 4)))
                    ]
                    live.extend(
                        allocator.allocate_stages(f"m{int(rng.integers(3))}", mems)
                    )
                elif op == "release" and live:
                    allocator.release(live.pop(int(rng.integers(len(live)))))
                elif op == "resize" and live:
                    res = live[int(rng.integers(len(live)))]
                    allocator.resize(res, float(rng.uniform(1, 40)) * gib)
            except (AllocationError, ValueError):
                pass  # rejected ops must leave the books untouched
            self._assert_balanced(allocator, cluster)
        for res in list(live):
            allocator.release(res)
        assert allocator.live == {}
        assert all(g.serving_mem == 0.0 for g in cluster.gpus)

    def test_double_release_rejected_and_books_intact(self):
        sim = Simulator()
        cluster = make_small_cluster(sim, n_servers=1, gpus_per_server=2)
        allocator = GPUAllocator(cluster)
        res = allocator.reserve_on("m", cluster.gpus[0], 2**30)
        allocator.release(res)
        with pytest.raises(AllocationError):
            allocator.release(res)
        self._assert_balanced(allocator, cluster)


# ----------------------------------------------------------------------
# QoS shed accounting: multi-class chaos + detection power
# ----------------------------------------------------------------------
class TestMultiClassChaos:
    def test_paper_fleets_are_class_annotated(self):
        """Every paper-cluster chaos spec is a multi-class fleet, so the
        audit exercises priority routing + per-tenant admission under
        reclaim/drain/refactor interleavings."""
        for spec in map(chaos_spec, range(24)):
            if spec.cluster != "paper":
                continue
            classes = {m.model: m.slo_class for m in spec.models}
            assert None not in classes.values()
            assert "interactive" in classes.values()
            assert spec.qos_enabled

    def test_case_kwargs_can_override_class_annotations(self):
        """A test pins spec fields with ``dataclasses.replace``: stripping
        the annotations leaves a valid, unclassed spec."""
        spec = chaos_spec(3)
        plain = replace(
            spec,
            models=tuple(
                replace(m, slo_class=None, share_cap=None) for m in spec.models
            ),
            elastic=False,
        )
        assert not plain.qos_enabled

    def test_annotations_validated(self):
        spec = chaos_spec(3)
        with pytest.raises(ValueError, match="repeats a model"):
            replace(spec, models=spec.models + spec.models[:1])
        with pytest.raises(ValueError, match="SLO class"):
            replace(spec.models[0], slo_class="gold")

    @pytest.mark.parametrize("system", ("FlexPipe", "Tetris"))
    def test_multiclass_small_cluster_case_holds_invariants(self, system):
        """A small-cluster two-tenant case with explicit classes: the
        shed-accounting invariant (admitted + shed == offered, per
        tenant; sheds exactly once) holds under chaos."""
        base = chaos_spec(5)
        (primary,) = base.models
        spec = replace(
            base,
            models=(
                replace(primary, slo_class="interactive"),
                ModelScript(
                    "BERT-21B", segments=primary.segments, slo_class="batch"
                ),
            ),
        )
        report = run_chaos(system, 5, spec)
        assert report.ok, "\n".join(str(v) for v in report.violations)
        assert report.qos_enabled
        for model in spec.model_names:
            tenant = report.tenants[model]
            assert tenant.offered > 0
            assert tenant.admitted + tenant.shed == tenant.offered


class TestShedAccountingDetection:
    """The new admission/shed accounting invariants must actually fire."""

    @pytest.fixture
    def gated_run(self, clean_run):
        from repro.core.admission import AdmissionGate

        sim, ctx, system, auditor = clean_run
        gate = AdmissionGate(lambda r: None)
        # Replay the generated population through the gate's books so the
        # aggregate and per-model triples match ground truth.
        for generator in auditor.generators:
            for request in generator.requests:
                gate.submit(request)
        auditor.gates = [gate]
        return sim, ctx, system, auditor, gate

    def test_balanced_gate_audits_clean(self, gated_run):
        *_, auditor, gate = gated_run
        assert auditor.audit_quiesce() == []

    def test_imbalanced_aggregate_flagged(self, gated_run):
        *_, auditor, gate = gated_run
        gate.stats.admitted -= 1
        assert "admission-accounting" in invariants_of(auditor.audit_quiesce())

    def test_imbalanced_tenant_triple_flagged(self, gated_run):
        *_, auditor, gate = gated_run
        next(iter(gate.tenant_stats().values())).admitted -= 1
        assert "admission-accounting" in invariants_of(auditor.audit_quiesce())

    def test_request_booked_only_in_the_aggregate_flagged(self, gated_run):
        """Both triples balance, but the aggregate holds a request no
        model's books do: the tenant triples no longer sum to it."""
        *_, auditor, gate = gated_run
        gate.stats.offered += 1
        gate.stats.admitted += 1
        assert "admission-accounting" in invariants_of(auditor.audit_quiesce())

    def test_unmarked_shed_flagged(self, gated_run):
        """A gate counting a shed with no request marked rejected means a
        shed vanished (or was double-counted) — exactly-once broken."""
        *_, auditor, gate = gated_run
        gate.stats.offered += 1
        gate.stats.rejected += 1
        assert "shed-accounting" in invariants_of(auditor.audit_quiesce())

    def test_shed_request_completing_flagged(self, gated_run):
        *_, system, auditor, gate = gated_run[1:]
        completed = next(
            r
            for g in auditor.generators
            for r in g.requests
            if r.completed
        )
        completed.rejected = True  # shed mark on a completed request
        gate.stats.admitted -= 1
        gate.stats.rejected += 1
        assert "shed-accounting" in invariants_of(auditor.audit_quiesce())


# ----------------------------------------------------------------------
# link-rates: the lazy fair-share links against the two-pass recompute
# ----------------------------------------------------------------------
class TestLinkRates:
    """A corrupted stream class, held rate or remaining on a fair-share
    link is flagged mid-run and by the quiesce entry point."""

    @pytest.fixture
    def loading(self):
        """DistServe cold-starting ``coldstart-economy``: 200 checkpoint
        loads share the cluster storage link."""
        from repro.scenarios.driver import ScenarioDriver

        driver = ScenarioDriver(
            ScenarioCase(get_scenario("coldstart-economy").quick(), "DistServe", 0)
        )
        driver.start()
        driver.advance(1.0)
        storage = driver.system.ctx.cluster.storage
        assert storage.active_count >= 100
        return InvariantAuditor(driver.system), storage

    @staticmethod
    def _link_rates(violations):
        return [v for v in violations if v.invariant == "link-rates"]

    def _flagged(self, auditor, text):
        running = self._link_rates(auditor.audit_running())
        quiesce = self._link_rates(
            auditor.audit_quiesce(expect_empty_allocator=False)
        )
        return [
            found
            for found in (running, quiesce)
            if any(text in v.detail for v in found)
        ]

    def test_clean_links_audit_clean(self, loading):
        auditor, _storage = loading
        assert self._link_rates(auditor.audit_running()) == []

    def test_corrupted_group_flagged(self, loading):
        auditor, storage = loading
        handle = storage.in_flight()[3]
        assert storage.stream_class(handle) == "fair"
        handle._own = True  # filed as own-paced at the fair rate
        handle._rate = storage._fair_rate
        handle._r0, handle._t0 = handle.nbytes, storage.sim.now
        assert len(self._flagged(auditor, "held 'own', rule says 'fair'")) == 2

    def test_corrupted_rate_flagged(self, loading):
        auditor, storage = loading
        storage._fair_rate *= 1.01
        assert len(self._flagged(auditor, "!= recompute")) == 2

    def test_corrupted_remaining_flagged(self, loading):
        auditor, storage = loading
        storage.in_flight()[0]._key += 100 * GB
        assert len(self._flagged(auditor, "outside [0,")) == 2

    def test_every_link_event_holds_the_rule(self, monkeypatch):
        """The per-event oracle: after every start and finish on every link
        of a real cold-start cell, the held state is the rule's."""
        from repro.validation.auditor import link_rate_problems

        reschedule = FairShareLink._reschedule
        checked, problems = [0], []

        def audited(link):
            reschedule(link)
            if link.active_count:
                checked[0] += 1
                problems.extend(link_rate_problems(link))

        monkeypatch.setattr(FairShareLink, "_reschedule", audited)
        spec = get_scenario("coldstart-economy").quick()
        report = run_scenario_case(ScenarioCase(spec, "FlexPipe", 0))
        assert report.violations == [] and problems == []
        assert checked[0] > 500
