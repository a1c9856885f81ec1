"""Tests for the experiment harness, the figure workloads and the system
factories."""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.common import ExperimentConfig, build_environment
from repro.experiments.systems import make_system
from repro.scenarios.driver import (
    ScenarioCase,
    ScenarioDriver,
    _make_segment_arrivals,
)
from repro.simulation.randomness import RandomStreams
from repro.validation.auditor import InvariantAuditor, Violation
from repro.workloads.arrivals import GammaArrivals, MMPPArrivals, PoissonArrivals


class TestExperimentConfig:
    def test_defaults_match_paper_baseline(self):
        cfg = ExperimentConfig()
        assert cfg.qps == 20.0  # §9.1: "baseline of 20 QPS"
        assert cfg.model == "OPT-66B"

    def test_specs_include_background_model(self):
        cfg = ExperimentConfig(extra_models=("BERT-21B",))
        assert [s.name for s in cfg.specs] == ["OPT-66B", "BERT-21B"]
        assert len(ExperimentConfig().specs) == 1

    def test_unknown_cluster_kind_rejected(self):
        with pytest.raises(ValueError):
            build_environment(ExperimentConfig(cluster="exotic"))

    def test_build_environment_warms_fragmentation(self):
        sim, cluster, streams, frag = build_environment(ExperimentConfig())
        assert frag is not None
        assert cluster.subscription_rate() > 1.0
        frag.stop()

    def test_fragmentation_can_be_disabled(self):
        _, cluster, _, frag = build_environment(
            ExperimentConfig(fragmentation=False)
        )
        assert frag is None
        assert cluster.subscription_rate() == 0.0


def compiled(spec, tenant: int = 0):
    """The arrival process the driver builds for a tenant's segment."""
    segment = spec.models[tenant].segments[0]
    streams = RandomStreams(0)
    return segment, _make_segment_arrivals(
        segment, streams.stream("arrivals"), streams.stream("trace")
    )


class TestArrivalRouting:
    """The figure-spec builder: renewal arrivals up to CV 1, sustained
    MMPP bursts above it; the background tenant stays a renewal process."""

    def test_cv_one_is_poisson(self):
        segment, proc = compiled(figures.figure_spec("t", cv=1.0))
        assert segment.kind == "steady"
        assert isinstance(proc, PoissonArrivals)

    def test_high_cv_uses_mmpp_bursts_by_default(self):
        segment, proc = compiled(figures.figure_spec("t", cv=4.0))
        assert segment.kind == "burst"
        assert isinstance(proc, MMPPArrivals)
        assert proc.cv == pytest.approx(4.0, rel=0.05)

    def test_gamma_when_mmpp_disabled(self):
        # The background tenant never bursts: at CV 4 it is a Gamma
        # renewal process at the same inter-arrival CV.
        spec = figures.figure_spec("t", cv=4.0, background="BERT-21B")
        segment, proc = compiled(spec, tenant=1)
        assert segment.kind == "steady"
        assert isinstance(proc, GammaArrivals)

    def test_sub_poisson_cv_uses_gamma(self):
        segment, proc = compiled(figures.figure_spec("t", cv=0.1))
        assert segment.kind == "steady"
        assert isinstance(proc, GammaArrivals)


class TestFigureAudit:
    """A figure never renders a cell that broke an invariant or crashed."""

    def test_figure_raises_on_violation(self, monkeypatch):
        def broken(self):
            return [Violation("request-conservation", "injected")]

        monkeypatch.setattr(InvariantAuditor, "audit_quiesce", broken)
        with pytest.raises(RuntimeError) as info:
            figures.fig3_rows(cvs=(1.0,), jobs=1, use_cache=False)
        message = str(info.value)
        for part in ("fig3-cv1", "AlpaServe", "seed 0", "request-conservation"):
            assert part in message

    def test_crashed_live_cell_raises(self, monkeypatch):
        def explode(self):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(ScenarioDriver, "run", explode)
        case = ScenarioCase(figures.figure_spec("t"), "FlexPipe", 3)
        report, extra = figures.live_cell((case, figures.completed_records))
        assert extra is None
        with pytest.raises(RuntimeError, match="t-cv1 / FlexPipe / seed 3.*harness-crash"):
            figures.audited_summary(report)


class TestFactories:
    def test_unknown_system_raises_with_options(self, ctx):
        with pytest.raises(KeyError, match="available"):
            make_system("vLLM", ctx, ExperimentConfig())

    def test_make_system_builds_each(self, ctx):
        cfg = ExperimentConfig(cluster="small", fragmentation=False, qps=5.0)
        for name in ("FlexPipe", "AlpaServe", "MuxServe", "ServerlessLLM", "Tetris"):
            system = make_system(name, ctx, cfg)
            assert system.name == name
            system.shutdown()
