"""Causal request tracing, the fleet flight recorder, and tail
attribution: unit tests for the span/recorder/attribution layer plus
traced-scenario integration (span conservation, tracing-off identity,
sharded merges with provenance, the ``repro trace`` CLI)."""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main
from repro.observability import (
    BUCKETS,
    AttributionReport,
    FinalTrace,
    FleetEvent,
    FlightRecorder,
    Span,
    SpanTracer,
    attribute_tail,
    bucket_seconds,
    conservation_violations,
    merge_shard_traces,
    perfetto_trace,
)
from repro.observability.tracer import PHASE_BUCKET, _split_by_windows
from repro.scenarios import (
    ArrivalSegment,
    ModelScript,
    ScenarioCase,
    ScenarioEvent,
    ScenarioSpec,
    get_scenario,
    run_scenario_case,
)
from repro.scenarios.driver import ScenarioDriver
from repro.validation.auditor import InvariantAuditor

# A small traced workhorse: two tenants, a refactor and a reclaim so the
# refactor-pause and preemption machinery runs, pipelined loading so the
# cold-gate path runs.
MINI = ScenarioSpec(
    name="obs-mini",
    cluster="small",
    settle=60.0,
    drain=10.0,
    models=(
        ModelScript(
            "LLAMA2-7B",
            segments=(ArrivalSegment("steady", duration=20.0, qps=5.0),),
        ),
        ModelScript(
            "WHISPER-9B",
            segments=(
                ArrivalSegment("burst", start=4.0, duration=12.0, qps=3.0, cv=4.0),
            ),
        ),
    ),
    events=(
        ScenarioEvent(at=6.0, action="reclaim"),
        ScenarioEvent(at=10.0, action="refactor", model="LLAMA2-7B"),
        ScenarioEvent(at=14.0, action="scale_out", model="WHISPER-9B"),
    ),
    admission_cap=64,
    pipelined_loading=True,
)


def make_trace(
    rid=0,
    model="M",
    slo_class=None,
    arrival=0.0,
    prefill_done=1.0,
    completion=2.0,
    spans=(),
    shard=None,
):
    return FinalTrace(
        rid=rid,
        model=model,
        slo_class=slo_class,
        arrival=arrival,
        prefill_done=prefill_done,
        completion=completion,
        replica="r0",
        spans=tuple(spans),
        shard=shard,
    )


def tiling_spans(arrival, completion, phases):
    """Spans for ``phases`` = [(phase, duration), ...] tiling the interval."""
    spans, cursor = [], arrival
    for phase, duration in phases:
        spans.append(Span(phase, PHASE_BUCKET[phase], cursor, cursor + duration))
        cursor += duration
    assert cursor == pytest.approx(completion)
    return spans


# ----------------------------------------------------------------------
# Span / tracer units
# ----------------------------------------------------------------------
class TestSpanUnits:
    def test_phase_buckets_are_closed(self):
        assert set(PHASE_BUCKET.values()) == set(BUCKETS)

    def test_span_duration(self):
        assert Span("prefill", "prefill", 1.0, 3.5).duration == pytest.approx(2.5)

    def test_final_trace_metrics_and_retag(self):
        trace = make_trace(arrival=1.0, prefill_done=2.5, completion=4.0)
        assert trace.ttft == pytest.approx(1.5)
        assert trace.latency == pytest.approx(3.0)
        tagged = trace.retagged(3)
        assert tagged.shard == 3
        assert trace.shard is None  # immutable original

    def test_split_by_windows_no_windows(self):
        assert _split_by_windows(0.0, 2.0, []) == [(0.0, 2.0, False)]

    def test_split_by_windows_interior_window(self):
        segments = _split_by_windows(0.0, 10.0, [[2.0, 5.0]])
        assert segments == [
            (0.0, 2.0, False),
            (2.0, 5.0, True),
            (5.0, 10.0, False),
        ]

    def test_split_by_windows_open_window_swallows_tail(self):
        segments = _split_by_windows(0.0, 10.0, [[4.0, None]])
        assert segments == [(0.0, 4.0, False), (4.0, 10.0, True)]

    def test_split_by_windows_disjoint_interval(self):
        assert _split_by_windows(0.0, 2.0, [[5.0, 6.0]]) == [(0.0, 2.0, False)]

    def test_split_empty_interval(self):
        assert _split_by_windows(3.0, 3.0, [[0.0, 10.0]]) == []

    def test_refactor_windows_pairing(self):
        tracer = SpanTracer()
        tracer.refactor_begin("r0", 5.0)
        tracer.refactor_end("r0", 8.0)
        tracer.refactor_begin("r0", 12.0)
        assert tracer.refactor_windows["r0"] == [[5.0, 8.0], [12.0, None]]
        # An end with no open window is a no-op, never a crash.
        tracer.refactor_end("r1", 1.0)
        assert "r1" not in tracer.refactor_windows


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_records_structured_events(self):
        recorder = FlightRecorder()
        recorder.record(1.0, "deploy", replica="r0", warm=True)
        (event,) = recorder.events
        assert event.kind == "deploy"
        assert event.time == 1.0
        assert event.detail == {"replica": "r0", "warm": True}
        assert event.seq == 1

    def test_ring_buffer_bounds_memory(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(float(i), "tick", i=i)
        assert len(recorder.events) == 4
        assert [e.detail["i"] for e in recorder.events] == [6, 7, 8, 9]
        assert recorder.evicted == 6
        assert recorder.seen == 10

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_retagged_event(self):
        event = FleetEvent(1, 2.0, "deploy")
        assert event.retagged(2).shard == 2
        assert event.shard is None


# ----------------------------------------------------------------------
# Conservation checking
# ----------------------------------------------------------------------
class TestConservation:
    def test_exact_tiling_passes(self):
        trace = make_trace(
            spans=tiling_spans(
                0.0, 2.0, [("batch-formation", 0.5), ("prefill", 0.5), ("decode", 1.0)]
            )
        )
        assert conservation_violations([trace]) == []

    def test_gap_detected(self):
        spans = [
            Span("batch-formation", "queue", 0.0, 0.5),
            Span("prefill", "prefill", 1.0, 2.0),  # 0.5 s hole
        ]
        (problem,) = conservation_violations([make_trace(spans=spans)])
        assert "gap" in problem

    def test_overlap_detected(self):
        spans = [
            Span("batch-formation", "queue", 0.0, 1.2),
            Span("prefill", "prefill", 1.0, 2.0),
        ]
        (problem,) = conservation_violations([make_trace(spans=spans)])
        assert "overlap" in problem

    def test_wrong_endpoint_detected(self):
        spans = [Span("decode", "decode", 0.0, 1.5)]
        (problem,) = conservation_violations([make_trace(spans=spans)])
        assert "completion" in problem

    def test_missing_spans_detected(self):
        (problem,) = conservation_violations([make_trace(spans=())])
        assert "no spans" in problem

    def test_tolerance_scales_with_magnitude(self):
        # One float ulp of drift at t=1e6 must not trip the invariant.
        t1 = 1e6 + 0.5
        spans = [
            Span("batch-formation", "queue", 1e6, t1),
            Span("decode", "decode", t1 + 1e-7, 1e6 + 2.0),
        ]
        trace = make_trace(arrival=1e6, prefill_done=1e6 + 1.0, completion=1e6 + 2.0, spans=spans)
        assert conservation_violations([trace]) == []


# ----------------------------------------------------------------------
# Tail attribution
# ----------------------------------------------------------------------
class TestAttribution:
    def test_empty_population(self):
        report = attribute_tail([])
        assert report.tail_count == 0
        assert report.attributed_fraction == 1.0

    def test_bucket_seconds_clips_to_cutoff(self):
        trace = make_trace(
            spans=tiling_spans(0.0, 2.0, [("batch-formation", 1.0), ("decode", 1.0)])
        )
        full = bucket_seconds(trace)
        assert full["queue"] == pytest.approx(1.0)
        assert full["decode"] == pytest.approx(1.0)
        ttft = bucket_seconds(trace, cutoff=1.5)
        assert ttft["queue"] == pytest.approx(1.0)
        assert ttft["decode"] == pytest.approx(0.5)

    def test_tail_selection_and_fraction(self):
        traces = [
            make_trace(
                rid=i,
                model="A" if i % 2 else "B",
                slo_class="interactive",
                arrival=0.0,
                prefill_done=float(i + 1),
                completion=float(i + 1),
                spans=tiling_spans(
                    0.0, i + 1.0, [("park", i + 0.5), ("prefill", 0.5)]
                ),
            )
            for i in range(10)
        ]
        report = attribute_tail(traces, metric="ttft", percentile=90.0)
        assert report.tail_count == 1  # only the slowest survives p90
        assert report.threshold == pytest.approx(9.1)
        assert report.total_seconds == pytest.approx(10.0)
        assert report.attributed_fraction == pytest.approx(1.0)
        assert report.buckets["cold-load"] == pytest.approx(9.5)
        assert report.buckets["prefill"] == pytest.approx(0.5)
        assert set(report.by_tenant) == {"A"}
        assert set(report.by_class) == {"interactive"}

    def test_metric_validated(self):
        with pytest.raises(ValueError, match="metric"):
            attribute_tail([make_trace()], metric="nope")

    def test_report_fraction_guard(self):
        report = AttributionReport("ttft", 99.0, 0.0, 0, 0.0)
        assert report.attributed_fraction == 1.0


# ----------------------------------------------------------------------
# Shard merge + Perfetto export
# ----------------------------------------------------------------------
class TestMergeAndExport:
    def test_merge_retags_and_orders(self):
        t0 = make_trace(rid=7, arrival=5.0, spans=())
        t1 = make_trace(rid=3, arrival=1.0, spans=())
        e0 = FleetEvent(1, 9.0, "deploy")
        e1 = FleetEvent(1, 2.0, "deploy")
        traces, events = merge_shard_traces([(0, [t0], [e0]), (1, [t1], [e1])])
        assert [(t.rid, t.shard) for t in traces] == [(3, 1), (7, 0)]
        assert [(e.time, e.shard) for e in events] == [(2.0, 1), (9.0, 0)]

    def test_merge_is_enumeration_order_invariant(self):
        shards = [
            (0, [make_trace(rid=1, arrival=2.0)], []),
            (1, [make_trace(rid=2, arrival=1.0)], []),
        ]
        forward, _ = merge_shard_traces(shards)
        backward, _ = merge_shard_traces(list(reversed(shards)))
        assert forward == backward

    def test_perfetto_export_shape(self):
        trace = make_trace(
            shard=2,
            spans=tiling_spans(0.0, 2.0, [("batch-formation", 1.0), ("decode", 1.0)]),
        )
        event = FleetEvent(1, 0.5, "deploy", {"replica": "r0"}, shard=2)
        payload = perfetto_trace([trace], [event])
        assert payload["displayTimeUnit"] == "ms"
        rows = payload["traceEvents"]
        complete = [r for r in rows if r["ph"] == "X"]
        instants = [r for r in rows if r["ph"] == "i"]
        meta = [r for r in rows if r["ph"] == "M"]
        assert len(complete) == 2
        assert len(instants) == 1
        assert [m["args"]["name"] for m in meta] == ["shard 2"]
        decode = next(r for r in complete if r["name"] == "decode")
        assert decode["ts"] == pytest.approx(1e6)  # seconds -> µs
        assert decode["dur"] == pytest.approx(1e6)
        assert decode["pid"] == 2
        assert json.dumps(payload)  # JSON-serialisable end to end


# ----------------------------------------------------------------------
# Auditor wiring
# ----------------------------------------------------------------------
class TestAuditorWiring:
    class _Sim:
        def __init__(self, tracer):
            self.tracer = tracer

    class _System:
        def __init__(self, tracer, offered=0):
            self.sim = TestAuditorWiring._Sim(tracer)
            self.metrics = SimpleNamespace(offered=offered)

    def test_untraced_system_is_exempt(self):
        auditor = InvariantAuditor(self._System(None))
        assert auditor._check_span_conservation() == []

    def test_tampered_trace_is_a_violation(self):
        tracer = SpanTracer()
        tracer.finalized.append(
            make_trace(spans=[Span("decode", "decode", 0.0, 1.5)])
        )
        auditor = InvariantAuditor(self._System(tracer))
        (violation,) = auditor._check_span_conservation()
        assert violation.invariant == "span-conservation"

    def test_untraced_ingress_is_a_violation(self):
        auditor = InvariantAuditor(self._System(SpanTracer(), offered=3))
        (violation,) = auditor._check_span_conservation()
        assert violation.invariant == "span-conservation"
        assert "3 request(s) accepted but 0 trace(s) begun" in violation.detail

    def test_traced_distserve_traces_every_request(self):
        """DistServe routes through the shared ingress, so its split
        prefill/decode pools trace every request like the others."""
        spec = get_scenario("paper-multi-burst").quick()
        driver = ScenarioDriver(ScenarioCase(spec, "DistServe", 0, trace=True))
        report = driver.run()
        assert report.violations == []
        system = driver.system
        assert driver.tracer.begun == system.metrics.offered > 0
        assert system.prefill_routed and system.decode_routed
        assert len(report.traces) == report.completed


# ----------------------------------------------------------------------
# Traced scenario integration
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_report():
    return run_scenario_case(ScenarioCase(MINI, "FlexPipe", 0, trace=True))


class TestTracedScenario:
    def test_run_is_clean(self, traced_report):
        assert traced_report.violations == []

    def test_every_completion_is_traced(self, traced_report):
        assert len(traced_report.traces) == traced_report.completed
        assert traced_report.completed > 0

    def test_spans_tile_every_interval(self, traced_report):
        assert conservation_violations(traced_report.traces) == []

    def test_tail_fully_attributed(self, traced_report):
        for metric in ("ttft", "latency"):
            report = attribute_tail(traced_report.traces, metric=metric)
            assert report.attributed_fraction >= 0.95
            assert report.attributed_fraction == pytest.approx(1.0)

    def test_flight_recorder_saw_the_control_plane(self, traced_report):
        kinds = {e.kind for e in traced_report.fleet_events}
        assert "replica_activated" in kinds
        assert "teardown" in kinds
        assert "refactor_started" in kinds

    def test_refactor_event_pairs_with_outcome(self, traced_report):
        events = traced_report.fleet_events
        started = sum(1 for e in events if e.kind == "refactor_started")
        resolved = sum(
            1
            for e in events
            if e.kind in ("refactor_switched", "refactor_aborted")
        )
        assert started == resolved
        assert started >= 1

    def test_tracing_off_report_is_identical(self, traced_report):
        off = run_scenario_case(ScenarioCase(MINI, "FlexPipe", 0, trace=False))
        assert off.traces == [] and off.fleet_events == []

        def strip(report):
            payload = dataclasses.asdict(report)
            payload.pop("traces")
            payload.pop("fleet_events")
            return json.dumps(payload, sort_keys=True, default=repr)

        assert strip(off) == strip(traced_report)

    def test_untraced_requests_carry_no_trace(self):
        driver = ScenarioDriver(ScenarioCase(MINI, "FlexPipe", 0))
        driver.run()
        assert driver.tracer is None
        assert all(
            r.trace is None for r in driver.system.metrics.records
        )


class TestShardedTracing:
    @pytest.fixture(scope="class")
    def sharded(self):
        spec = ScenarioSpec(
            name="obs-shard",
            cluster="paper",
            settle=30.0,
            drain=10.0,
            models=(
                ModelScript(
                    "LLAMA2-7B",
                    segments=(ArrivalSegment(duration=10.0, qps=8.0),),
                ),
                ModelScript(
                    "WHISPER-9B",
                    segments=(ArrivalSegment(duration=10.0, qps=2.0),),
                ),
            ),
        )
        return run_scenario_case(
            ScenarioCase(spec, "FlexPipe", 0, shards=2, trace=True)
        )

    def test_merge_keeps_provenance(self, sharded):
        assert sharded.shards == 2
        assert sharded.traces
        assert {t.shard for t in sharded.traces} == {0, 1}
        assert {e.shard for e in sharded.fleet_events} <= {0, 1}

    def test_merged_spans_still_tile(self, sharded):
        assert conservation_violations(sharded.traces) == []

    def test_merge_order_is_stable(self, sharded):
        arrivals = [(t.arrival, t.rid) for t in sharded.traces]
        assert arrivals == sorted(arrivals)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCLI:
    def test_run_args(self):
        args = build_parser().parse_args(
            ["trace", "run", "coldstart-economy", "--quick", "--shards", "2"]
        )
        assert args.trace_command == "run"
        assert args.scenario == "coldstart-economy"
        assert args.quick and args.shards == 2

    def test_bare_scenario_sugar_routes_to_run(self, capsys):
        # `repro trace <unknown>` parses as `trace run <unknown>` and
        # fails scenario resolution (exit 2) instead of argparse's usage
        # error — proof the sugar rewrite engaged.
        assert main(["trace", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sugar_preserves_literal_subcommands(self):
        args = build_parser().parse_args(["trace", "stats", "in.csv"])
        assert args.trace_command == "stats"

    def test_traced_scenario_cli_end_to_end(self, tmp_path, capsys, monkeypatch):
        from repro.scenarios import SCENARIOS

        monkeypatch.setitem(SCENARIOS, "obs-mini", MINI)
        out = tmp_path / "trace.json"
        code = main(["trace", "obs-mini", "--json", str(out)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "TTFT tail" in captured.out
        assert "trace gates held" in captured.out
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
