"""Scenario-layer sharding: partitioner, determinism, merged reports.

The acceptance contract: ``--shards N`` results are a pure function of
the scenario (identical for every worker count N >= 1), every shard runs
the invariant auditor, and the merged fleet report conserves requests
across shards.  Streaming workload generation (retained-rejected mode,
lazy trace replay) rides the same PR and is covered here too.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.scenarios import driver as driver_module
from repro.scenarios.driver import (
    ScenarioCase,
    ScenarioDriver,
    run_scenario_case,
    run_scenarios,
)
from repro.scenarios.library import SCENARIOS
from repro.scenarios.sharding import (
    MIN_SERVERS_PER_GROUP,
    _build_slice,
    _run_group,
    merge_shard_reports,
    partition_scenario,
)
from repro.scenarios.spec import (
    ArrivalSegment,
    ModelScript,
    ScenarioEvent,
    ScenarioSpec,
)
from repro.simulation.engine import Simulator
from repro.workloads.arrivals import ReplayArrivals
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.requests import LengthDistribution, RequestSampler

DETERMINISM_SCENARIOS = ("paper-multi-burst", "gpu-contention", "trace-replay")


def canonical(report) -> str:
    """Byte-stable serialization of a report (the determinism witness)."""
    return json.dumps(
        dataclasses.asdict(report), sort_keys=True, default=repr
    )


def two_tenant_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="shard-unit",
        models=(
            ModelScript(
                model="LLAMA2-7B",
                segments=(ArrivalSegment(duration=10.0, qps=8.0),),
            ),
            ModelScript(
                model="WHISPER-9B",
                segments=(ArrivalSegment(duration=10.0, qps=2.0),),
            ),
        ),
        cluster="paper",
        settle=30.0,
        drain=10.0,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------------
# Partitioner units
# ----------------------------------------------------------------------
class TestPartitioner:
    def test_one_group_per_tenant(self):
        plan = partition_scenario(two_tenant_spec(), seed=3)
        assert plan.sharded
        assert [g.models for g in plan.groups] == [
            ("LLAMA2-7B",),
            ("WHISPER-9B",),
        ]

    def test_server_slices_disjoint_and_named(self):
        plan = partition_scenario(two_tenant_spec(), seed=0)
        seen: set[int] = set()
        for group in plan.groups:
            indices = set(group.server_indices)
            assert not indices & seen
            seen |= indices
        # Paper topology has 42 servers; every one is dealt to a group.
        assert len(seen) == 42

    def test_traffic_weighting_shapes_slices(self):
        # LLAMA2 offers 4x WHISPER's volume, so it must get the (strictly)
        # larger server share.
        plan = partition_scenario(two_tenant_spec(), seed=0)
        llama, whisper = plan.groups
        assert len(llama.server_indices) > len(whisper.server_indices)

    def test_pure_function_of_spec(self):
        a = partition_scenario(two_tenant_spec(), seed=5)
        b = partition_scenario(two_tenant_spec(), seed=5)
        assert a == b

    def test_seed_changes_shard_seeds_not_slices(self):
        a = partition_scenario(two_tenant_spec(), seed=1)
        b = partition_scenario(two_tenant_spec(), seed=2)
        assert [g.server_indices for g in a.groups] == [
            g.server_indices for g in b.groups
        ]
        assert [g.seed for g in a.groups] != [g.seed for g in b.groups]

    def test_targeted_events_follow_their_tenant(self):
        spec = two_tenant_spec(
            events=(
                ScenarioEvent(at=2.0, action="scale_out", model="WHISPER-9B"),
                ScenarioEvent(at=4.0, action="drain", model="LLAMA2-7B"),
            )
        )
        plan = partition_scenario(spec, seed=0)
        assert [e.model for e in plan.groups[0].spec.events] == ["LLAMA2-7B"]
        assert [e.model for e in plan.groups[1].spec.events] == ["WHISPER-9B"]

    def test_fleet_events_deal_round_robin(self):
        spec = two_tenant_spec(
            events=tuple(
                ScenarioEvent(at=float(i + 1), action="reclaim")
                for i in range(4)
            )
        )
        plan = partition_scenario(spec, seed=0)
        assert len(plan.groups[0].spec.events) == 2
        assert len(plan.groups[1].spec.events) == 2

    def test_admission_cap_split_covers_parent(self):
        spec = two_tenant_spec(admission_cap=101)
        plan = partition_scenario(spec, seed=0)
        caps = [g.spec.admission_cap for g in plan.groups]
        assert all(c > 0 for c in caps)
        assert sum(caps) >= 101

    def test_subspec_duration_padded_to_parent(self):
        spec = two_tenant_spec(
            events=(ScenarioEvent(at=25.0, action="reclaim"),)
        )
        # The event stretches the parent's traffic window past the
        # segments' 10 s; every sub-spec must share the padded window.
        plan = partition_scenario(spec, seed=0)
        for group in plan.groups:
            assert group.spec.duration == spec.duration
            assert group.spec.horizon == spec.horizon

    def test_qos_scenarios_fall_back(self):
        spec = two_tenant_spec(qos="on")
        plan = partition_scenario(spec, seed=0)
        assert not plan.sharded
        assert "qos" in plan.fallback
        assert plan.groups[0].models == ("LLAMA2-7B", "WHISPER-9B")

    def test_single_tenant_falls_back(self):
        spec = two_tenant_spec(models=(two_tenant_spec().models[0],))
        plan = partition_scenario(spec, seed=0)
        assert not plan.sharded
        assert "single-tenant" in plan.fallback

    def test_tiny_cluster_falls_back(self):
        # The small topology has 8 servers; 3 tenants would leave groups
        # below the MIN_SERVERS_PER_GROUP floor.
        models = tuple(
            ModelScript(
                model=m, segments=(ArrivalSegment(duration=10.0, qps=2.0),)
            )
            for m in ("LLAMA2-7B", "WHISPER-9B", "BERT-21B")
        )
        spec = two_tenant_spec(models=models, cluster="small")
        plan = partition_scenario(spec, seed=0)
        assert not plan.sharded
        assert "too small" in plan.fallback
        assert MIN_SERVERS_PER_GROUP * len(models) > 8

    def test_big_model_floor_respected(self):
        # OPT-66B (120 GB) needs 2 GPUs even at negligible traffic; its
        # slice must cover the floor despite a tiny weight.
        models = (
            ModelScript(
                model="LLAMA2-7B",
                segments=(ArrivalSegment(duration=60.0, qps=50.0),),
            ),
            ModelScript(
                model="OPT-66B",
                segments=(ArrivalSegment(duration=1.0, qps=0.1),),
            ),
        )
        plan = partition_scenario(two_tenant_spec(models=models), seed=0)
        from repro.cluster.cluster import server_placements

        gpus = {p.index: p.n_gpus for p in server_placements("paper")}
        opt_gpus = sum(gpus[i] for i in plan.groups[1].server_indices)
        assert opt_gpus >= 2


# ----------------------------------------------------------------------
# End-to-end determinism + merged-report sanity
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,trace",
    [(name, False) for name in DETERMINISM_SCENARIOS]
    + [(name, True) for name in DETERMINISM_SCENARIOS],
    ids=[*DETERMINISM_SCENARIOS, *(f"{n}-traced" for n in DETERMINISM_SCENARIOS)],
)
def test_shard_count_invariance(name, trace):
    """The acceptance gate: byte-identical reports at --shards 1/2/4,
    traced (span trees, replica names) as well as untraced."""
    spec = SCENARIOS[name].quick()
    blobs = {}
    report = None
    for workers in (1, 2, 4):
        report = run_scenario_case(
            ScenarioCase(spec, "FlexPipe", 0, workers, trace=trace)
        )
        blobs[workers] = canonical(report)
    # Compare as a set: a long-string diff of two huge reports is slow.
    assert len(set(blobs.values())) == 1, "reports differ across --shards"
    assert report.ok, [v.detail for v in report.violations]
    assert report.shards >= 1
    assert report.engine_events > 0


def test_merged_report_sanity():
    spec = SCENARIOS["paper-multi-burst"].quick()
    report = run_scenario_case(ScenarioCase(spec, "FlexPipe", 0, 2))
    assert report.shards == 3  # three tenants, three groups
    assert report.shard_fallback == ""
    # Cross-shard conservation: everything generated is accounted for.
    assert report.offered == report.completed + report.shed
    assert set(report.per_model) == set(spec.model_names)
    assert set(report.tenants) == set(spec.model_names)
    agg = report.aggregate
    assert agg.completed == sum(
        s.completed for s in report.per_model.values()
    )
    # The aggregate counts *admitted* work (sheds never reach a tenant).
    assert agg.offered == report.offered - report.shed
    assert 0.0 < agg.gpu_utilization <= 1.0
    assert agg.gpus_used >= 1
    assert agg.mean_latency > 0
    assert agg.latency_percentiles[99] >= agg.latency_percentiles[50]
    assert report.events  # the reclaim events fired somewhere


def test_merged_aggregate_keeps_the_ttft_tail():
    """The merged p99 TTFT is the 99th percentile of every shard's
    measured prefill latencies, concatenated — the population the
    monolithic ``summarize`` reads."""
    spec = SCENARIOS["paper-multi-burst"].quick()
    plan = partition_scenario(spec, seed=0)
    slices, prefill = [], []
    for group in plan.groups:
        driver = ScenarioDriver(
            ScenarioCase(group.spec, "FlexPipe", group.seed),
            server_indices=group.server_indices,
        )
        slices.append(_build_slice(group, driver, driver.run()))
        prefill += [
            r.prefill_latency
            for r in driver.system.metrics.records
            if r.completed
            and r.arrival_time >= driver.epoch
            and r.prefill_latency is not None
        ]
    merged = merge_shard_reports(
        ScenarioCase(spec, "FlexPipe", 0, 2), plan, slices
    )
    p99 = float(np.percentile(prefill, 99))
    assert p99 > 0.0
    assert merged.aggregate.p99_ttft == p99


def test_fallback_case_still_runs_and_reports():
    spec = SCENARIOS["gpu-contention"].quick()
    report = run_scenario_case(ScenarioCase(spec, "FlexPipe", 0, 4))
    assert report.shards == 1
    assert report.shard_fallback != ""
    assert report.ok, [v.detail for v in report.violations]


def test_shard_program_runs_one_group():
    spec = SCENARIOS["trace-replay"].quick()
    plan = partition_scenario(spec, seed=0)
    assert plan.sharded
    piece = _run_group((plan.groups[0], "FlexPipe", False))
    assert piece.index == 0
    assert piece.models == plan.groups[0].models
    assert piece.report.ok
    assert piece.engine_events == piece.report.engine_events > 0
    assert piece.report.completed == len(piece.populations.latencies)


def test_crashing_group_becomes_harness_crash(monkeypatch):
    """A group that raises inside a pool worker surfaces as a finding."""
    spec = SCENARIOS["paper-multi-burst"].quick()
    assert partition_scenario(spec, seed=0).sharded

    def explode(self, until):
        raise RuntimeError("injected shard fault")

    # Patched before the pool forks, so every worker inherits it.
    monkeypatch.setattr(ScenarioDriver, "advance", explode)
    report = run_scenario_case(ScenarioCase(spec, "FlexPipe", 0, 2))
    assert [v.invariant for v in report.violations] == ["harness-crash"]
    assert "injected shard fault" in report.violations[0].detail


def test_nested_pools_match_sequential():
    """Cells on a --jobs pool, each fanning its groups out on its own
    --shards pool, equal the all-in-one-process sweep."""
    specs = [SCENARIOS["paper-multi-burst"], SCENARIOS["trace-replay"]]
    kwargs = dict(systems=["FlexPipe"], quick=True, use_cache=False)
    nested = run_scenarios(specs, jobs=2, shards=2, **kwargs)
    sequential = run_scenarios(specs, jobs=1, shards=1, **kwargs)
    assert all(r.shards > 1 for r in sequential)
    assert [canonical(r) for r in nested] == [
        canonical(r) for r in sequential
    ]


# ----------------------------------------------------------------------
# Streaming workload generation
# ----------------------------------------------------------------------
class TestStreamingGenerator:
    def drive(self, retain):
        sim = Simulator()
        sampler = RequestSampler(
            "LLAMA2-7B",
            np.random.default_rng(11),
            prompt=LengthDistribution(median=64, sigma=0.5, lo=16, hi=256),
            output=LengthDistribution(median=4, sigma=0.5, lo=1, hi=32),
            slo_latency=5.0,
        )
        seen = []

        def sink(request):
            # Gate stand-in: every third request is shed synchronously.
            request.rejected = len(seen) % 3 == 0
            seen.append(request)

        generator = WorkloadGenerator(
            sim,
            ReplayArrivals([0.5 * i for i in range(1, 31)]),
            sampler,
            sink,
            duration=60.0,
            retain=retain,
        )
        sim.run_until_idle()
        return generator, seen

    def test_rejected_mode_counts_everything(self):
        generator, seen = self.drive("rejected")
        assert generator.offered == len(seen) == 30
        assert all(r.rejected for r in generator.requests)
        assert len(generator.requests) == 10

    def test_all_mode_is_historical_behaviour(self):
        generator, seen = self.drive("all")
        assert generator.requests == seen
        assert generator.offered == 30

    def test_observer_sees_final_rejected_mark(self):
        sim = Simulator()
        sampler = RequestSampler(
            "LLAMA2-7B",
            np.random.default_rng(2),
            prompt=LengthDistribution(median=64, sigma=0.5, lo=16, hi=256),
            output=LengthDistribution(median=4, sigma=0.5, lo=1, hi=32),
            slo_latency=5.0,
        )
        observed = []

        def sink(request):
            request.rejected = True

        WorkloadGenerator(
            sim,
            ReplayArrivals([1.0, 2.0]),
            sampler,
            sink,
            duration=10.0,
            retain="rejected",
            observer=lambda r: observed.append(r.rejected),
        )
        sim.run_until_idle()
        assert observed == [True, True]

    def test_unknown_retain_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="retain"):
            WorkloadGenerator(
                sim,
                ReplayArrivals([1.0]),
                RequestSampler(
                    "LLAMA2-7B",
                    np.random.default_rng(0),
                    prompt=LengthDistribution(
                        median=64, sigma=0.5, lo=16, hi=256
                    ),
                    output=LengthDistribution(median=4, sigma=0.5, lo=1, hi=32),
                    slo_latency=5.0,
                ),
                lambda r: None,
                duration=10.0,
                retain="everything",
            )


class SizedReplayOracle:
    """The historical sized ``ReplayArrivals``: sort every stamp up front,
    then step a cursor.  The lazy class must reproduce its gaps exactly
    on any time-ordered input."""

    def __init__(self, timestamps):
        self.timestamps = sorted(float(t) for t in timestamps if t >= 0.0)
        self._cursor = 0
        self._last = 0.0

    def next_interarrival(self) -> float:
        if self._cursor >= len(self.timestamps):
            return math.inf
        t = self.timestamps[self._cursor]
        self._cursor += 1
        gap = max(t - self._last, 0.0)
        self._last = max(t, self._last)
        return gap

    @property
    def cv(self) -> float:
        if len(self.timestamps) < 3:
            return 0.0
        gaps = np.diff(np.asarray(self.timestamps))
        mean = float(gaps.mean())
        return float(gaps.std() / mean) if mean > 0 else 0.0


def _gaps(process) -> list[float]:
    out = []
    while (gap := process.next_interarrival()) != math.inf:
        out.append(gap)
    return out


class TestStreamingReplay:
    def test_stream_equals_sized_gaps(self):
        stamps = [0.3, 1.1, 1.9, 4.2, 4.2, 7.0]
        oracle = SizedReplayOracle(stamps)
        streamed = ReplayArrivals(iter(stamps))
        for _ in stamps:
            assert streamed.next_interarrival() == oracle.next_interarrival()
        assert oracle.next_interarrival() == float("inf")
        assert streamed.next_interarrival() == float("inf")

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_replay_gaps_match_sized_oracle(self, seed, monkeypatch):
        """The `replay` segment's DiurnalTrace stamps replay bit-identically
        through the lazy class and the sized oracle."""
        captured = []
        monkeypatch.setattr(
            driver_module,
            "ReplayArrivals",
            lambda stamps, rng: captured.append(stamps),
        )
        for script in SCENARIOS["trace-replay"].models:
            for segment in script.segments:
                driver_module._make_segment_arrivals(
                    segment,
                    np.random.default_rng(seed),
                    np.random.default_rng(1000 + seed),
                )
        assert len(captured) == 2
        for stamps in captured:
            gaps = _gaps(ReplayArrivals(stamps))
            assert len(gaps) == len(stamps) > 0
            assert gaps == _gaps(SizedReplayOracle(stamps))

    def test_stream_never_materialises(self):
        def infinite():
            t = 0.0
            while True:
                t += 0.25
                yield t

        process = ReplayArrivals(infinite())
        for _ in range(10_000):
            assert process.next_interarrival() == 0.25
        # Nothing retained: the instance holds no list or array.
        assert not any(
            isinstance(value, (list, tuple, np.ndarray))
            for value in vars(process).values()
        )
        assert process.rate == pytest.approx(4.0)

    def test_streaming_cv_converges_to_empirical(self):
        rng = np.random.default_rng(9)
        gaps = rng.exponential(0.5, size=4000)
        stamps = np.cumsum(gaps)
        oracle = SizedReplayOracle(list(stamps))
        streamed = ReplayArrivals(iter(float(t) for t in stamps))
        for _ in range(len(stamps)):
            streamed.next_interarrival()
        assert streamed.cv == pytest.approx(oracle.cv, rel=0.05)

    def test_negative_stamps_skipped_in_stream(self):
        process = ReplayArrivals(iter([-3.0, 1.0, -0.5, 2.0]))
        assert process.next_interarrival() == 1.0
        assert process.next_interarrival() == 1.0
        assert process.next_interarrival() == float("inf")
