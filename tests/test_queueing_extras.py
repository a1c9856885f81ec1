"""Tests for Kingman, Erlang and pipeline-bubble queueing models.

These validate against closed forms (M/M/1 exactness, Erlang recurrences,
the GPipe bubble bound) plus monotonicity properties, since the serving
benches lean on these models for capacity decisions.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.queueing.bubbles import bubble_fraction, microbatches_for_bubble
from repro.queueing.erlang import (
    erlang_b,
    erlang_c,
    mms_mean_wait,
    mms_wait_quantile,
    servers_for_wait,
)
from repro.queueing.kingman import GG1Station


class TestKingman:
    def test_mm1_exact(self):
        """Kingman is exact for M/M/1: W_q = rho/(mu - lambda)."""
        lam, mu = 4.0, 5.0
        station = GG1Station(lam, 1.0 / mu, cv_arrival=1.0, cv_service=1.0)
        assert station.mean_wait() == pytest.approx((lam / mu) / (mu - lam))

    def test_md1_half_of_mm1(self):
        """Deterministic service halves the M/M/1 wait (Pollaczek-Khinchine)."""
        lam, mu = 4.0, 5.0
        mm1 = GG1Station(lam, 1.0 / mu, 1.0, 1.0).mean_wait()
        md1 = GG1Station(lam, 1.0 / mu, 1.0, 0.0).mean_wait()
        assert md1 == pytest.approx(mm1 / 2.0)

    def test_unstable_station_infinite_wait(self):
        station = GG1Station(5.0, 0.25)
        assert not station.stable
        assert station.mean_wait() == math.inf
        assert station.mean_queue_length() == math.inf

    def test_sojourn_adds_service(self):
        station = GG1Station(1.0, 0.5)
        assert station.mean_sojourn() == pytest.approx(station.mean_wait() + 0.5)

    def test_queue_length_littles_law(self):
        station = GG1Station(2.0, 0.25)
        assert station.mean_queue_length() == pytest.approx(2.0 * station.mean_wait())

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GG1Station(0.0, 1.0)
        with pytest.raises(ValueError):
            GG1Station(1.0, 0.0)
        with pytest.raises(ValueError):
            GG1Station(1.0, 1.0, cv_arrival=-0.1)

    @given(
        lam=st.floats(min_value=0.1, max_value=5.0),
        cv=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_wait_increases_with_variability(self, lam, cv):
        tau = 0.1  # keeps rho <= 0.5
        low = GG1Station(lam, tau, cv_arrival=cv, cv_service=0.5).mean_wait()
        high = GG1Station(lam, tau, cv_arrival=cv + 1.0, cv_service=0.5).mean_wait()
        assert high >= low


class TestErlang:
    def test_erlang_b_single_server(self):
        """B(1, a) = a / (1 + a)."""
        assert erlang_b(2.0, 1.0, 1) == pytest.approx(2.0 / 3.0)

    def test_erlang_b_two_servers_closed_form(self):
        """B(2, a) = a^2/2 / (1 + a + a^2/2)."""
        a = 1.5
        expected = (a**2 / 2) / (1 + a + a**2 / 2)
        assert erlang_b(a, 1.0, 2) == pytest.approx(expected)

    def test_erlang_c_single_server_is_rho(self):
        """For M/M/1, P(wait) = rho."""
        assert erlang_c(3.0, 4.0, 1) == pytest.approx(0.75)

    def test_erlang_c_overload_returns_one(self):
        assert erlang_c(10.0, 1.0, 4) == 1.0

    def test_mm1_wait_matches_closed_form(self):
        lam, mu = 3.0, 4.0
        expected = lam / (mu * (mu - lam))  # rho/(mu-lam)
        assert mms_mean_wait(lam, mu, 1) == pytest.approx(expected)

    def test_wait_decreases_with_servers(self):
        waits = [mms_mean_wait(8.0, 1.0, s) for s in range(9, 15)]
        assert all(a > b for a, b in zip(waits, waits[1:]))

    def test_wait_quantile_zero_when_wait_unlikely(self):
        # Very lightly loaded: P(wait) < 1%, so the P50 of wait is 0.
        assert mms_wait_quantile(0.1, 1.0, 10, 0.5) == 0.0

    def test_wait_quantile_tail_formula(self):
        lam, mu, s, q = 6.0, 1.0, 8, 0.99
        c = erlang_c(lam, mu, s)
        expected = math.log(c / (1 - q)) / (s * mu - lam)
        assert mms_wait_quantile(lam, mu, s, q) == pytest.approx(expected)

    def test_wait_quantile_validates(self):
        with pytest.raises(ValueError, match="quantile"):
            mms_wait_quantile(1.0, 1.0, 2, 1.0)

    def test_servers_for_wait_minimal(self):
        lam, mu, target = 12.0, 1.0, 0.05
        s = servers_for_wait(lam, mu, target)
        assert mms_mean_wait(lam, mu, s) <= target
        assert s == 13 or mms_mean_wait(lam, mu, s - 1) > target

    def test_servers_for_wait_unreachable(self):
        with pytest.raises(ValueError, match="no server count"):
            servers_for_wait(10.0, 1.0, 1e-12, max_servers=11)

    def test_parameter_validation(self):
        for args in [(0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)]:
            with pytest.raises(ValueError):
                erlang_c(*args)

    @given(
        offered=st.floats(min_value=0.1, max_value=20.0),
        servers=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_blocking_is_probability_and_decreases(self, offered, servers):
        b1 = erlang_b(offered, 1.0, servers)
        b2 = erlang_b(offered, 1.0, servers + 1)
        assert 0.0 <= b2 <= b1 <= 1.0


class TestBubbles:
    def test_gpipe_bound(self):
        assert bubble_fraction(4, 8) == pytest.approx(3 / 11)

    def test_single_stage_no_bubble(self):
        assert bubble_fraction(1, 1) == 0.0

    def test_more_microbatches_smaller_bubble(self):
        fractions = [bubble_fraction(8, m) for m in (1, 2, 4, 8, 16)]
        assert all(a > b for a, b in zip(fractions, fractions[1:]))

    def test_microbatches_for_bubble_inverts(self):
        for stages in (2, 4, 16):
            m = microbatches_for_bubble(stages, 0.1)
            assert bubble_fraction(stages, m) <= 0.1
            if m > 1:
                assert bubble_fraction(stages, m - 1) > 0.1

    def test_microbatches_single_stage(self):
        assert microbatches_for_bubble(1, 0.5) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            bubble_fraction(0, 1)
        with pytest.raises(ValueError):
            microbatches_for_bubble(4, 1.5)
