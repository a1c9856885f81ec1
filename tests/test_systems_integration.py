"""End-to-end integration tests: every serving system on a live workload.

These run short simulations on the full paper cluster with fragmentation,
exercising the complete stack (allocation -> loading -> batching ->
pipelined execution -> scaling/refactoring -> metrics), through
``ScenarioDriver`` with the invariant auditor attached.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.figures import figure_spec
from repro.experiments.systems import PAPER_SYSTEMS, replicas_for_fraction
from repro.scenarios.driver import ScenarioCase, ScenarioDriver

FAST = dict(duration=60.0, settle=120.0, warmup=20.0, drain=20.0, qps=10.0)


def run_audited(name: str, overrides=None, **workload):
    """One audited run of system ``name``: ``(summary, live system)``."""
    spec = figure_spec("integration", **{**FAST, **workload})
    driver = ScenarioDriver(ScenarioCase(spec, name, overrides=overrides or {}))
    report = driver.run()
    assert report.ok, [str(v) for v in report.violations]
    return report.aggregate, driver.system


@pytest.fixture(scope="module")
def flexpipe_run():
    return run_audited("FlexPipe", cv=2.0)


class TestFlexPipeEndToEnd:
    def test_serves_all_requests(self, flexpipe_run):
        summary, _ = flexpipe_run
        assert summary.offered > 100
        assert summary.completed == summary.offered

    def test_goodput_positive(self, flexpipe_run):
        # This deliberately under-provisioned short run stresses the scaling
        # path; the assertion is that the system keeps making goodput, not
        # that it holds the SLO universally.
        summary, _ = flexpipe_run
        assert summary.goodput_rate > 0.1

    def test_latency_breakdown_consistent(self, flexpipe_run):
        summary, _ = flexpipe_run
        assert summary.mean_latency == pytest.approx(
            summary.breakdown.total, rel=0.01
        )
        assert summary.breakdown.communication > 0

    def test_utilization_in_unit_range(self, flexpipe_run):
        summary, _ = flexpipe_run
        assert 0.0 < summary.gpu_utilization <= 1.0
        assert summary.gpus_used >= 4

    def test_consistency_protocol_exercised_on_refactors(self, flexpipe_run):
        summary, system = flexpipe_run
        checks = sum(
            state.executor.consistency_checks
            for state in system._models.values()
        )
        assert checks >= summary.refactor_count


class TestAllSystemsEndToEnd:
    @pytest.mark.parametrize("name", sorted(PAPER_SYSTEMS))
    def test_system_completes_workload(self, name):
        summary, system = run_audited(name, cv=1.0)
        assert summary.completed > 0, f"{name} completed nothing"
        assert summary.completed >= 0.9 * summary.offered
        assert summary.goodput_rate > 0.3
        system_names = {r.system for r in [summary]}
        assert system_names == {system.name}

    def test_static_systems_never_scale(self):
        for name in ("AlpaServe", "MuxServe"):
            summary, _ = run_audited(name, cv=2.0)
            assert summary.scale_out_count == 0
            assert summary.refactor_count == 0

    def test_reactive_systems_scale_out_under_load(self):
        summary, _ = run_audited("ServerlessLLM", cv=2.0, qps=20.0, duration=90.0)
        assert summary.scale_out_count > 0

    def test_flexpipe_refactors_under_cv_shift(self):
        summary, system = run_audited("FlexPipe", cv=4.0, qps=15.0, duration=90.0)
        assert summary.refactor_count > 0
        granularity = system.current_granularity("OPT-66B")
        assert granularity >= 4  # moved away from nothing; sanity

    def test_muxserve_packs_fewer_gpus_than_alpaserve(self):
        alpa, _ = run_audited("AlpaServe", cv=1.0, background="BERT-21B")
        mux, _ = run_audited("MuxServe", cv=1.0, background="BERT-21B")
        assert mux.gpus_used <= alpa.gpus_used

    def test_same_seed_same_workload_across_systems(self):
        a, _ = run_audited("AlpaServe", cv=1.0)
        b, _ = run_audited("Tetris", cv=1.0)
        assert a.offered == b.offered  # identical arrival stream


class TestAblations:
    def test_refactoring_off_never_refactors(self):
        summary, _ = run_audited(
            "FlexPipe", {"enable_refactoring": False}, cv=4.0
        )
        assert summary.refactor_count == 0

    def test_warm_cache_off_disables_warm_starts(self):
        summary, _ = run_audited(
            "FlexPipe", {"enable_warm_cache": False}, cv=4.0
        )
        assert summary.warm_start_rate == 0.0


class TestProvisioning:
    def test_static_fraction_gets_more_replicas(self, ctx):
        cfg = ExperimentConfig()
        low = replicas_for_fraction(ctx, cfg, 4, 0.30)
        high = replicas_for_fraction(ctx, cfg, 4, 0.75)
        assert high >= low >= 1
