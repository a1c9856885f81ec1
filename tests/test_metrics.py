"""Tests for metric collection, latency stats, stall detection, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.collector import MetricsCollector, ScalingEvent
from repro.metrics.latency import LatencyBreakdown, percentiles
from repro.metrics.report import format_table
from repro.metrics.stalls import (
    _moving_median,
    detect_stalls,
    recovery_times,
)
from repro.workloads.requests import Request


def make_request(rid, arrival, latency, *, slo=5.0, queue=0.1, execute=0.5, comm=0.05):
    req = Request(
        rid=rid,
        model="m",
        arrival_time=arrival,
        prompt_tokens=128,
        output_tokens=8,
        slo_latency=slo,
    )
    req.completion_time = arrival + latency
    req.queue_time = queue
    req.exec_time = execute
    req.comm_time = comm
    req.prefill_done = arrival + min(latency, 0.2)
    return req


class TestLatencyStats:
    def test_percentiles_are_monotone(self):
        values = np.random.default_rng(0).exponential(1.0, 1000)
        ps = percentiles(values)
        ordered = [ps[q] for q in (50, 75, 90, 95, 99)]
        assert ordered == sorted(ordered)

    def test_percentiles_match_the_per_q_loop_exactly(self):
        """One vectorised ``np.percentile`` call equals one call per ``q``,
        bit for bit, over seeded arrays (sizes 1, 2, ties, all-equal)."""
        qs = (50, 75, 90, 95, 99)
        rng = np.random.default_rng(7)
        arrays = [np.array([3.25]), np.array([1.0, 2.5]), np.full(17, 0.125)]
        for size in (3, 10, 57, 300):
            arrays.append(rng.lognormal(0.0, 1.5, size))
            arrays.append(rng.integers(0, 5, size).astype(float))
        for values in arrays:
            loop = {q: float(np.percentile(values, q)) for q in qs}
            assert percentiles(values, qs) == loop

    def test_breakdown_total(self):
        b = LatencyBreakdown(queue=1.0, execution=2.0, communication=0.5)
        assert b.total == 3.5
        assert "queue" in str(b)


def _moving_median_loop(values: np.ndarray, window: int) -> np.ndarray:
    """The per-point ``np.median`` loop the vectorised smoother replaced."""
    if window <= 1 or values.size <= window:
        return values
    out = np.empty_like(values)
    half = window // 2
    for i in range(values.size):
        lo = max(i - half, 0)
        hi = min(i + half + 1, values.size)
        out[i] = np.median(values[lo:hi])
    return out


class TestMovingMedian:
    def test_bit_identical_to_the_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(600):
            n = int(rng.integers(0, 61))
            window = int(rng.integers(0, 9))
            values = rng.lognormal(0.0, 1.0, n)
            if n and rng.random() < 0.3:
                values[rng.integers(0, n, size=3)] = 0.0  # ties
            got = _moving_median(values, window)
            want = _moving_median_loop(values, window)
            assert got.tobytes() == want.tobytes(), (n, window)

    def test_even_window_uses_the_odd_span(self):
        values = np.array([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 0.0])
        # window 4 -> half 2 -> five-point interior windows.
        assert _moving_median(values, 4).tolist() == (
            _moving_median_loop(values, 4).tolist()
        )
        assert _moving_median(values, 4)[3] == np.median(values[1:6])


class TestStallDetection:
    def test_flat_series_has_no_stalls(self):
        t = np.arange(100.0)
        lat = np.ones(100)
        assert detect_stalls(t, lat) == []

    def test_single_episode_detected_with_duration(self):
        t = np.arange(200.0)
        lat = np.ones(200)
        lat[80:120] = 5.0  # sustained stall
        episodes = detect_stalls(t, lat)
        assert len(episodes) == 1
        assert episodes[0].duration == pytest.approx(40.0, abs=6.0)

    def test_recovery_requires_return_below_threshold(self):
        t = np.arange(100.0)
        lat = np.ones(100)
        lat[50:] = 5.0  # never recovers
        episodes = detect_stalls(t, lat)
        assert len(episodes) == 1
        assert episodes[0].end == t[-1]

    def test_smoothing_ignores_single_outliers(self):
        t = np.arange(100.0)
        lat = np.ones(100)
        lat[50] = 50.0  # lone spike, not a stall episode
        assert detect_stalls(t, lat) == []

    def test_multiple_episodes(self):
        t = np.arange(300.0)
        lat = np.ones(300)
        lat[50:80] = 4.0
        lat[200:240] = 4.0
        episodes = detect_stalls(t, lat)
        assert len(episodes) == 2
        assert all(d > 0 for d in recovery_times(episodes))

    def test_too_few_samples_returns_empty(self):
        assert detect_stalls([1.0, 2.0], [1.0, 2.0]) == []

    def test_empty_run(self):
        assert detect_stalls([], []) == []
        assert recovery_times([]) == []

    def test_single_request_run(self):
        assert detect_stalls([1.0], [2.0]) == []

    def test_zero_baseline_returns_empty(self):
        # All-zero latencies give a zero P25 baseline; the thresholds
        # degenerate, so detection must bail rather than divide by it.
        t = [float(i) for i in range(20)]
        assert detect_stalls(t, [0.0] * 20) == []

    def test_poisoned_series_detection_power(self):
        """A deliberately injected stall window must be found (power
        check): one episode, covering the poisoned span."""
        n = 200
        t = [float(i) for i in range(n)]
        lat = [1.0] * n
        for i in range(100, 121):
            lat[i] = 5.0  # well past 1.5x the P25 baseline
        episodes = detect_stalls(t, lat)
        assert len(episodes) == 1
        episode = episodes[0]
        assert episode.start == pytest.approx(100.0, abs=3.0)
        assert episode.end == pytest.approx(121.0, abs=3.0)
        assert recovery_times(episodes)[0] > 0.0

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            detect_stalls([1.0], [1.0, 2.0])

    def test_recovery_times_list(self):
        t = np.arange(200.0)
        lat = np.ones(200)
        lat[60:90] = 5.0
        assert len(recovery_times(detect_stalls(t, lat))) == 1


class TestCollector:
    def test_goodput_counts_slo_met_only(self):
        collector = MetricsCollector("sys")
        for i in range(10):
            req = make_request(i, arrival=float(i), latency=2.0 if i < 7 else 9.0)
            collector.on_submit(req)
            collector.on_complete(req)
        summary = collector.summarize(10.0)
        assert summary.offered == 10
        assert summary.completed == 10
        assert summary.goodput == 7
        assert summary.goodput_rate == pytest.approx(0.7)

    def test_measure_from_filters_warmup(self):
        collector = MetricsCollector("sys")
        for i in range(10):
            req = make_request(i, arrival=float(i), latency=1.0)
            collector.on_submit(req)
            collector.on_complete(req)
        summary = collector.summarize(10.0, measure_from=5.0)
        assert summary.offered == 5
        assert summary.completed == 5

    def test_breakdown_means(self):
        collector = MetricsCollector("sys")
        req = make_request(0, 0.0, 1.0, queue=0.4, execute=0.5, comm=0.1)
        collector.on_submit(req)
        collector.on_complete(req)
        summary = collector.summarize(10.0)
        assert summary.breakdown.queue == pytest.approx(0.4)
        assert summary.breakdown.execution == pytest.approx(0.5)
        assert summary.breakdown.communication == pytest.approx(0.1)

    def test_utilization_computed_from_busy_seconds(self):
        collector = MetricsCollector("sys")
        summary = collector.summarize(10.0, gpu_busy_seconds=20.0, gpus_used=4)
        assert summary.gpu_utilization == pytest.approx(0.5)

    def test_event_aggregation(self):
        collector = MetricsCollector("sys")
        collector.on_event(ScalingEvent(1.0, "scale_out", warm=True, init_time=2.0, wait_time=1.0))
        collector.on_event(ScalingEvent(2.0, "scale_out", warm=False, init_time=4.0))
        collector.on_event(ScalingEvent(3.0, "refactor", init_time=0.5))
        summary = collector.summarize(10.0)
        assert summary.scale_out_count == 2
        assert summary.refactor_count == 1
        assert summary.warm_start_rate == pytest.approx(0.5)
        assert summary.mean_init_time == pytest.approx(3.0)
        assert summary.mean_alloc_wait == pytest.approx(0.5)

    def test_events_respect_measure_from(self):
        """Warm-up deploys must not pollute the measured epoch's event
        stats (regression: events ignored ``measure_from``)."""
        collector = MetricsCollector("sys")
        # Warm-up transients before the epoch at t=5: a warm scale-out
        # and a refactor that must both drop out of the summary.
        collector.on_event(
            ScalingEvent(1.0, "scale_out", warm=True, init_time=9.0, wait_time=9.0)
        )
        collector.on_event(ScalingEvent(2.0, "refactor"))
        # The measured window: one cold scale-out, one refactor.
        collector.on_event(
            ScalingEvent(6.0, "scale_out", warm=False, init_time=2.0, wait_time=1.0)
        )
        collector.on_event(ScalingEvent(7.0, "refactor"))
        summary = collector.summarize(10.0, measure_from=5.0)
        assert summary.scale_out_count == 1
        assert summary.refactor_count == 1
        assert summary.warm_start_rate == pytest.approx(0.0)
        assert summary.mean_init_time == pytest.approx(2.0)
        assert summary.mean_alloc_wait == pytest.approx(1.0)

    def test_queue_samples_respect_measure_from(self):
        collector = MetricsCollector("sys")
        collector.sample_queue(1.0, 100)
        collector.sample_queue(6.0, 10)
        summary = collector.summarize(10.0, measure_from=5.0)
        assert summary.mean_queue_length == pytest.approx(10.0)

    def test_empty_collector_summarises_safely(self):
        summary = MetricsCollector("sys").summarize(10.0)
        assert summary.offered == 0
        assert summary.goodput_rate == 0.0
        assert summary.mean_latency == 0.0


class TestReport:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1], ["bbbb", 2.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
