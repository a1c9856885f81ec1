"""Tests for the Eq. 1 G/G/S model and the Insight-3 depth rule."""

from __future__ import annotations

import math

import pytest

from repro.core.flexpipe import STAGE_COUNTS
from repro.queueing.ggs import GGSModel, optimal_stage_count, pipeline_delay


class TestPipelineDelay:
    def test_formula(self):
        assert pipeline_delay(4, 0.1, 0.01) == pytest.approx(4 * 0.1 + 3 * 0.01)

    def test_single_stage_has_no_hops(self):
        assert pipeline_delay(1, 0.1, 5.0) == pytest.approx(0.1)

    def test_invalid_stage_count(self):
        with pytest.raises(ValueError):
            pipeline_delay(0, 0.1, 0.01)


class TestGGSModel:
    def test_queue_latency_grows_with_cv(self):
        base = dict(arrival_rate=8.0, stage_service_rates=(10.0,) * 4)
        low = GGSModel(cv_arrival=0.5, **base)
        high = GGSModel(cv_arrival=4.0, **base)
        assert high.queue_latency() > low.queue_latency()

    def test_unstable_system_diverges(self):
        model = GGSModel(
            arrival_rate=12.0, cv_arrival=1.0, stage_service_rates=(10.0,) * 4
        )
        assert math.isinf(model.queue_latency())
        assert math.isinf(model.congestion_delay())

    def test_congestion_sums_per_stage(self):
        model = GGSModel(
            arrival_rate=5.0, cv_arrival=1.0, stage_service_rates=(10.0, 20.0)
        )
        expected = 5.0 / 5.0 + 5.0 / 15.0
        assert model.congestion_delay() == pytest.approx(expected)

    def test_utilization_is_bottleneck_based(self):
        model = GGSModel(
            arrival_rate=5.0, cv_arrival=1.0, stage_service_rates=(10.0, 6.0)
        )
        assert model.utilization == pytest.approx(5.0 / 6.0)

    def test_finer_stages_win_under_high_cv(self):
        """The §3.3 effect: at CV>3 deeper pipelines (whose stages are
        proportionally faster) reduce total delay."""

        def model(n_stages, cv):
            # Splitting the model N ways multiplies stage service rate by N.
            return GGSModel(
                arrival_rate=8.0,
                cv_arrival=cv,
                stage_service_rates=(2.5 * n_stages,) * n_stages,
            )

        assert model(16, 6.0).total_delay() < model(4, 6.0).total_delay()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            GGSModel(arrival_rate=0.0, cv_arrival=1.0, stage_service_rates=(1.0,))
        with pytest.raises(ValueError):
            GGSModel(arrival_rate=1.0, cv_arrival=1.0, stage_service_rates=())
        with pytest.raises(ValueError):
            GGSModel(arrival_rate=1.0, cv_arrival=1.0, stage_service_rates=(0.0,))


class TestOptimalStageCount:
    def test_insight3_paper_anchor(self):
        """S ∝ sqrt(CV) with the paper's constant: 16 stages at CV=4."""
        assert optimal_stage_count(4.0, candidates=STAGE_COUNTS) == 16
        assert optimal_stage_count(1.0, candidates=STAGE_COUNTS) == 8

    def test_monotone_in_cv(self):
        picks = [optimal_stage_count(cv, candidates=STAGE_COUNTS) for cv in (0.1, 1.0, 4.0, 16.0)]
        assert picks == sorted(picks)

    def test_zero_cv_picks_coarsest(self):
        assert optimal_stage_count(0.0, candidates=STAGE_COUNTS) == 2

    def test_respects_candidate_set(self):
        assert optimal_stage_count(4.0, candidates=(4, 8)) == 8
