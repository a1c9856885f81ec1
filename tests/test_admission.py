"""Tests for admission control (goodput protection under overload)."""

from __future__ import annotations

import pytest

from repro.core.admission import (
    AdmissionGate,
    AlwaysAdmit,
    QueueCapPolicy,
    SLOFeasiblePolicy,
)
from repro.workloads.requests import Request


def make_request(rid=0, t=0.0, slo=5.0, slo_class=None):
    return Request(
        rid=rid,
        model="m",
        arrival_time=t,
        prompt_tokens=100,
        output_tokens=10,
        slo_latency=slo,
        slo_class=slo_class,
    )


class TestGate:
    def test_always_admit_passes_everything(self):
        seen = []
        gate = AdmissionGate(seen.append)
        for i in range(5):
            gate.submit(make_request(i))
        assert len(seen) == 5
        assert gate.stats.admitted == 5
        assert gate.stats.rejection_rate == 0.0

    def test_rejected_requests_marked_and_counted(self):
        seen = []
        rejected = []
        gate = AdmissionGate(
            seen.append, QueueCapPolicy(lambda: 100, cap=10), on_reject=rejected.append
        )
        request = make_request()
        gate.submit(request)
        assert seen == []
        assert rejected == [request]
        assert request.rejected
        assert gate.stats.rejection_rate == 1.0

    def test_stats_track_mixed_stream(self):
        queue = {"n": 0}
        gate = AdmissionGate(
            lambda r: None, QueueCapPolicy(lambda: queue["n"], cap=5)
        )
        for i in range(10):
            queue["n"] = i  # queue grows past the cap halfway through
            gate.submit(make_request(i))
        assert gate.stats.offered == 10
        assert gate.stats.admitted == 6  # queue 0..5 admitted
        assert gate.stats.rejected == 4


class TestQueueCap:
    def test_boundary_inclusive(self):
        policy = QueueCapPolicy(lambda: 5, cap=5)
        assert policy.admit(make_request())

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            QueueCapPolicy(lambda: 0, cap=-1)


class TestSLOFeasible:
    def make_policy(self, queue=0, capacity=10.0, service=1.0, headroom=1.0):
        return SLOFeasiblePolicy(
            lambda: queue,
            lambda: capacity,
            lambda r: service,
            headroom=headroom,
        )

    def test_admits_when_deadline_reachable(self):
        policy = self.make_policy(queue=10, capacity=10.0, service=1.0)
        assert policy.admit(make_request(slo=5.0))  # 1s wait + 1s service

    def test_rejects_unreachable_deadline(self):
        policy = self.make_policy(queue=100, capacity=10.0, service=1.0)
        assert not policy.admit(make_request(slo=5.0))  # 10s wait

    def test_headroom_shifts_the_boundary(self):
        tight = self.make_policy(queue=45, capacity=10.0, service=0.5, headroom=0.8)
        loose = self.make_policy(queue=45, capacity=10.0, service=0.5, headroom=1.5)
        request = make_request(slo=5.0)  # estimate = 5.0 exactly
        assert not tight.admit(request)
        assert loose.admit(request)

    def test_zero_capacity_rejects(self):
        policy = self.make_policy(queue=1, capacity=0.0)
        assert not policy.admit(make_request(slo=5.0))

    def test_bad_headroom_rejected(self):
        with pytest.raises(ValueError, match="headroom"):
            self.make_policy(headroom=0.0)

    def test_classed_request_judged_against_its_own_class_deadline(self):
        """Regression (QoS): a batch-class request whose sampler froze an
        interactive-grade slo_latency must be admitted while its *class*
        deadline (30 s) is feasible — not shed against the 2.5 s target
        it was never promised."""
        policy = self.make_policy(queue=100, capacity=10.0, service=1.0)
        assert policy.admit(make_request(slo=2.5, slo_class="batch"))
        assert not policy.admit(make_request(slo=2.5))


class TestEndToEndGoodputProtection:
    def test_slo_gate_improves_goodput_under_overload(self):
        """The reason admission control exists: shed infeasible work."""
        # A toy single-server queue: capacity 1 req/s, service 1 s.
        completed: list[Request] = []
        clock = {"free_at": 0.0, "now": 0.0}

        def serve(request: Request) -> None:
            start = max(request.arrival_time, clock["free_at"])
            finish = start + 1.0
            clock["free_at"] = finish
            request.completion_time = finish
            completed.append(request)

        def run(policy) -> float:
            completed.clear()
            clock["free_at"] = 0.0
            gate = AdmissionGate(serve, policy)
            for i in range(40):  # 2 req/s offered for 20 s: 2x overload
                clock["now"] = i * 0.5
                gate.submit(make_request(i, t=clock["now"], slo=3.0))
            good = sum(
                1
                for r in completed
                if r.completion_time - r.arrival_time <= r.slo_latency
            )
            return good / 40.0

        # Backlog in "requests" = seconds of queued work at 1 req/s.
        ungated = run(AlwaysAdmit())
        gated = run(
            SLOFeasiblePolicy(
                lambda: max(clock["free_at"] - clock["now"], 0.0),
                lambda: 1.0,
                lambda r: 1.0,
            )
        )
        # Without the gate almost everything finishes late; with it the
        # feasible fraction completes on time.
        assert gated > ungated
        assert gated >= 0.4
