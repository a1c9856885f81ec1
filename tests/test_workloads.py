"""Tests for arrival processes, CV estimators, traces, samplers, SLOs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.engine import Simulator
from repro.simulation.randomness import RandomStreams
from repro.workloads.arrivals import (
    GammaArrivals,
    MMPPArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workloads.cv import SlidingWindowCV, count_cv, interarrival_cv
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.requests import LengthDistribution, RequestSampler
from repro.workloads.traces import DiurnalTrace, DiurnalTraceConfig


@pytest.fixture
def rng():
    return RandomStreams(0).stream("test")


class TestArrivalProcesses:
    def test_poisson_mean_rate(self, rng):
        proc = PoissonArrivals(10.0, rng)
        ts = proc.timestamps(duration=200.0)
        assert len(ts) == pytest.approx(2000, rel=0.1)
        assert proc.cv == 1.0

    @pytest.mark.parametrize("cv", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_gamma_hits_target_cv(self, rng, cv):
        proc = GammaArrivals(20.0, cv, rng)
        ts = proc.timestamps(duration=500.0)
        measured = interarrival_cv(ts)
        assert measured == pytest.approx(cv, rel=0.15)

    def test_gamma_preserves_mean_rate(self, rng):
        proc = GammaArrivals(20.0, 4.0, rng)
        ts = proc.timestamps(duration=1000.0)
        assert len(ts) / 1000.0 == pytest.approx(20.0, rel=0.1)

    def test_gamma_rejects_bad_params(self, rng):
        with pytest.raises(ValueError):
            GammaArrivals(0.0, 1.0, rng)
        with pytest.raises(ValueError):
            GammaArrivals(1.0, 0.0, rng)

    def test_factory_routes_cv_one_to_poisson(self, rng):
        assert isinstance(make_arrivals(1.0, 1.0, rng), PoissonArrivals)
        assert isinstance(make_arrivals(1.0, 2.0, rng), GammaArrivals)

    def test_mmpp_mean_rate_preserved(self, rng):
        proc = MMPPArrivals(20.0, rng, burst_factor=8.0, burst_fraction=0.1)
        ts = proc.timestamps(duration=2000.0)
        assert len(ts) / 2000.0 == pytest.approx(20.0, rel=0.15)

    def test_mmpp_is_burstier_than_poisson(self, rng):
        proc = MMPPArrivals(20.0, rng, burst_factor=10.0)
        ts = proc.timestamps(duration=1000.0)
        assert interarrival_cv(ts) > 1.3

    def test_mmpp_with_cv_solver(self, rng):
        for target in (2.0, 4.0):
            proc = MMPPArrivals.with_cv(20.0, target, rng)
            assert proc.cv == pytest.approx(target, rel=0.05)

    def test_mmpp_with_cv_rejects_low_cv(self, rng):
        with pytest.raises(ValueError):
            MMPPArrivals.with_cv(20.0, 0.8, rng)

    def test_mmpp_parameter_validation(self, rng):
        with pytest.raises(ValueError):
            MMPPArrivals(1.0, rng, burst_factor=0.5)
        with pytest.raises(ValueError):
            MMPPArrivals(1.0, rng, burst_fraction=1.5)


class TestCVEstimators:
    def test_interarrival_cv_of_regular_arrivals_is_zero(self):
        assert interarrival_cv(np.arange(100.0)) == pytest.approx(0.0, abs=1e-9)

    def test_interarrival_cv_needs_three_samples(self):
        assert interarrival_cv([1.0, 2.0]) == 0.0

    def test_count_cv_window_size_matters(self, rng):
        """The Fig. 1 phenomenon: the same trace yields very different CVs
        at different window sizes."""
        trace = DiurnalTrace(rng, DiurnalTraceConfig(base_rate=3.0, burst_factor=12.0))
        ts = trace.generate(6 * 3600.0)
        short = count_cv(ts, window=180.0)
        long = count_cv(ts, window=3600.0)
        assert short != pytest.approx(long, rel=0.2)

    def test_count_cv_empty_is_zero(self):
        assert count_cv([], window=60.0) == 0.0

    def test_sliding_window_tracks_recent_cv(self):
        window = SlidingWindowCV(window=10.0)
        for t in np.arange(0.0, 10.0, 1.0):  # perfectly regular
            window.observe(float(t))
        assert window.value(now=10.0) == pytest.approx(0.0, abs=1e-9)

    def test_sliding_window_evicts_old_samples(self):
        window = SlidingWindowCV(window=5.0)
        window.observe(0.0)
        window.observe(1.0)
        assert window.count(now=100.0) == 0

    def test_sliding_window_rejects_out_of_order(self):
        window = SlidingWindowCV()
        window.observe(5.0)
        with pytest.raises(ValueError):
            window.observe(1.0)

    def test_sliding_window_rate(self):
        window = SlidingWindowCV(window=10.0)
        for t in np.arange(0.0, 10.0, 0.5):
            window.observe(float(t))
        assert window.arrival_rate(now=10.0) == pytest.approx(2.0, rel=0.1)

    def test_sliding_window_needs_min_samples(self):
        window = SlidingWindowCV(min_samples=5)
        for t in (0.0, 1.0, 2.0):
            window.observe(t)
        assert window.value(now=3.0) == 0.0


class TestRequestSampler:
    def test_lengths_respect_bounds(self, rng):
        sampler = RequestSampler(
            "m",
            rng,
            prompt=LengthDistribution(median=100, sigma=1.0, lo=10, hi=200),
            output=LengthDistribution(median=8, sigma=1.0, lo=1, hi=32),
        )
        for _ in range(500):
            req = sampler.sample(0.0)
            assert 10 <= req.prompt_tokens <= 200
            assert 1 <= req.output_tokens <= 32

    def test_request_ids_unique_and_increasing(self, rng):
        sampler = RequestSampler("m", rng)
        ids = [sampler.sample(0.0).rid for _ in range(10)]
        assert ids == sorted(set(ids))

    def test_slo_fields_propagate(self, rng):
        sampler = RequestSampler("m", rng, slo_latency=3.0)
        req = sampler.sample(5.0)
        assert req.slo_latency == 3.0
        assert req.arrival_time == 5.0
        assert req.model == "m"

    def test_latency_properties_before_completion(self, rng):
        req = RequestSampler("m", rng).sample(0.0)
        assert req.latency is None
        assert not req.slo_met
        assert not req.completed

    def test_slo_met_after_fast_completion(self, rng):
        req = RequestSampler("m", rng, slo_latency=10.0).sample(0.0)
        req.completion_time = 2.0
        assert req.slo_met


class TestWorkloadGenerator:
    def test_generates_for_duration_only(self):
        sim = Simulator()
        rng = RandomStreams(0).stream("a")
        received = []
        gen = WorkloadGenerator(
            sim,
            PoissonArrivals(10.0, rng),
            RequestSampler("m", RandomStreams(0).stream("r")),
            received.append,
            duration=50.0,
        )
        sim.run()
        assert gen.offered == len(received)
        assert gen.offered == pytest.approx(500, rel=0.15)
        assert all(r.arrival_time < 50.0 for r in received)

    def test_deterministic_across_same_seed(self):
        def run(seed):
            sim = Simulator()
            streams = RandomStreams(seed)
            out = []
            WorkloadGenerator(
                sim,
                PoissonArrivals(5.0, streams.stream("arrivals")),
                RequestSampler("m", streams.stream("requests")),
                out.append,
                duration=30.0,
            )
            sim.run()
            return [(r.arrival_time, r.prompt_tokens, r.output_tokens) for r in out]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_invalid_duration_rejected(self):
        sim = Simulator()
        rng = RandomStreams(0).stream("a")
        with pytest.raises(ValueError):
            WorkloadGenerator(
                sim,
                PoissonArrivals(1.0, rng),
                RequestSampler("m", rng),
                lambda r: None,
                duration=0.0,
            )


class TestDiurnalTrace:
    def test_trace_spans_duration(self, rng):
        ts = DiurnalTrace(rng).generate(3600.0)
        assert ts.size > 0
        assert ts.max() < 3600.0
        assert np.all(np.diff(ts) >= 0)

    def test_burst_factor_raises_short_window_cv(self, rng):
        calm = DiurnalTrace(
            RandomStreams(1).stream("t"),
            DiurnalTraceConfig(burst_rate_per_hour=0.0),
        ).generate(4 * 3600.0)
        bursty = DiurnalTrace(
            RandomStreams(1).stream("t"),
            DiurnalTraceConfig(burst_rate_per_hour=6.0, burst_factor=15.0),
        ).generate(4 * 3600.0)
        assert count_cv(bursty, 180.0) > count_cv(calm, 180.0)
