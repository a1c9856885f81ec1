"""Tests for admission control (goodput protection under overload)."""

from __future__ import annotations

import pytest

from repro.core.admission import (
    AdmissionGate,
    AdmissionPolicy,
    QueueCapPolicy,
    SLOFeasiblePolicy,
)
from repro.workloads.requests import Request


def make_request(rid=0, t=0.0, slo=5.0, slo_class=None, model="m"):
    return Request(
        rid=rid,
        model=model,
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
            seen.append,
            [QueueCapPolicy(lambda: 100, cap=10)],
            on_reject=rejected.append,
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
            lambda r: None, [QueueCapPolicy(lambda: queue["n"], cap=5)]
        )
        for i in range(10):
            queue["n"] = i  # queue grows past the cap halfway through
            gate.submit(make_request(i))
        assert gate.stats.offered == 10
        assert gate.stats.admitted == 6  # queue 0..5 admitted
        assert gate.stats.rejected == 4

    def test_registered_chain_replaces_the_shared_one(self):
        shed_all = QueueCapPolicy(lambda: 1, cap=0)
        gate = AdmissionGate(lambda r: None, [shed_all])
        gate.register("own", [])
        gate.submit(make_request(0, model="m"))
        gate.submit(make_request(1, model="own"))
        books = gate.tenant_stats()
        assert (books["m"].offered, books["m"].rejected) == (1, 1)
        assert (books["own"].offered, books["own"].admitted) == (1, 1)

    def test_every_request_is_booked_under_its_model(self):
        queue = {"n": 0}
        cap = QueueCapPolicy(lambda: queue["n"], cap=2)
        gate = AdmissionGate(lambda r: None, [cap])
        gate.register("b", [QueueCapPolicy(lambda: 0, cap=0)])
        for i in range(9):
            queue["n"] = i
            gate.submit(make_request(i, model="abc"[i % 3]))
        books = gate.tenant_stats().values()
        for field in ("offered", "admitted", "rejected"):
            assert sum(getattr(t, field) for t in books) == getattr(
                gate.stats, field
            )
        assert gate.stats.rejected > 0

    def test_chain_stops_at_the_first_rejection(self):
        seen = []

        class Spy(AdmissionPolicy):
            def admit(self, request):
                seen.append(request.rid)
                return True

        gate = AdmissionGate(lambda r: None, [QueueCapPolicy(lambda: 1, cap=0), Spy()])
        gate.submit(make_request())
        assert seen == []


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

        def run(policies) -> float:
            completed.clear()
            clock["free_at"] = 0.0
            gate = AdmissionGate(serve, policies)
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
        ungated = run([])
        gated = run(
            [
                SLOFeasiblePolicy(
                    lambda: max(clock["free_at"] - clock["now"], 0.0),
                    lambda: 1.0,
                    lambda r: 1.0,
                )
            ]
        )
        # Without the gate almost everything finishes late; with it the
        # feasible fraction completes on time.
        assert gated > ungated
        assert gated >= 0.4
