"""Tests for the experiment harness, the figure workloads and the systems
registry."""

from __future__ import annotations

import pytest

from repro.experiments import figures
from repro.experiments.common import ExperimentConfig, build_environment
from repro.core.context import ServingContext
from repro.experiments.systems import SYSTEMS, build_system
from repro.scenarios import SCENARIOS
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


class TestBuildSystem:
    def test_unknown_system_raises_with_options(self, ctx):
        with pytest.raises(KeyError, match="available"):
            build_system("vLLM", ctx, ExperimentConfig())

    def test_builds_each(self, ctx):
        cfg = ExperimentConfig(cluster="small", fragmentation=False, qps=5.0)
        for name in SYSTEMS:
            system = build_system(name, ctx, cfg)
            assert system.name == name
            system.shutdown()


def _provisioned(system) -> tuple:
    """(class, initial replicas, factory batch cap, stages per model); a
    DistServe model's stages are its (prefill, decode) pair."""
    stages = {}
    for model in sorted(system.specs):
        if hasattr(system, "current_granularity"):
            stages[model] = system.current_granularity(model)
        elif hasattr(system, "decode_plans"):
            stages[model] = (
                system.plans[model].n_stages,
                system.decode_plans[model].n_stages,
            )
        else:
            stages[model] = system.plans[model].n_stages
    return (
        type(system).__name__,
        system.initial_replicas,
        system.factory.batch_cap,
        stages,
    )


class TestProvisioningWitness:
    """What the registry builds, pinned to the values the per-system
    factory functions it replaced built (OPT-66B, 20 QPS, paper cluster)."""

    DEFAULT = {
        "AlpaServe": ("AlpaServeSystem", 5, 32, {"OPT-66B": 4}),
        "DistServe": ("DistServeSystem", 2, 32, {"OPT-66B": (4, 8)}),
        "FlexPipe": ("FlexPipeSystem", 2, 32, {"OPT-66B": 4}),
        "MuxServe": ("MuxServeSystem", 5, 32, {"OPT-66B": 4}),
        "ServerlessLLM": ("ServerlessLLMSystem", 2, 32, {"OPT-66B": 4}),
        "Tetris": ("TetrisSystem", 4, 16, {"OPT-66B": 2}),
    }
    # An explicit zero: scale-to-zero for every system that scales out;
    # the statically provisioned ones still start one replica.
    ZERO = {
        "AlpaServe": 1,
        "DistServe": 0,
        "FlexPipe": 0,
        "MuxServe": 1,
        "ServerlessLLM": 0,
        "Tetris": 0,
    }
    MULTI = ("BERT-21B", "LLAMA2-7B", "WHISPER-9B")
    # paper-multi-burst: three tenants, batch cap 16, sized from the spec.
    PAPER_MULTI_BURST = {
        "AlpaServe": ("AlpaServeSystem", 1, 16, dict.fromkeys(MULTI, 4)),
        "DistServe": ("DistServeSystem", 2, 16, dict.fromkeys(MULTI, (4, 8))),
        "FlexPipe": ("FlexPipeSystem", 1, 16, dict.fromkeys(MULTI, 4)),
        "MuxServe": ("MuxServeSystem", 1, 16, dict.fromkeys(MULTI, 4)),
        "ServerlessLLM": ("ServerlessLLMSystem", 1, 16, dict.fromkeys(MULTI, 4)),
        "Tetris": ("TetrisSystem", 1, 16, dict.fromkeys(MULTI, 1)),
    }

    @staticmethod
    def _build(name, **overrides):
        cfg = ExperimentConfig()
        sim, cluster, streams, _ = build_environment(cfg)
        ctx = ServingContext.create(sim, cluster, streams)
        return build_system(name, ctx, cfg, **overrides)

    def test_registry_lists_every_system(self):
        assert sorted(SYSTEMS) == sorted(self.DEFAULT)

    @pytest.mark.parametrize("name", sorted(DEFAULT))
    def test_paper_config(self, name):
        system = self._build(name)
        assert _provisioned(system) == self.DEFAULT[name]
        system.shutdown()

    @pytest.mark.parametrize("name", sorted(ZERO))
    def test_explicit_zero_replicas(self, name):
        system = self._build(name, initial_replicas=0)
        assert system.initial_replicas == self.ZERO[name]
        system.shutdown()

    @pytest.mark.parametrize("name", sorted(PAPER_MULTI_BURST))
    def test_multi_tenant_catalog_spec(self, name):
        driver = ScenarioDriver(
            ScenarioCase(SCENARIOS["paper-multi-burst"], name, 0)
        )
        driver.start()
        assert _provisioned(driver.system) == self.PAPER_MULTI_BURST[name]

    def test_spec_replica_count_beats_a_fixed_override(self):
        # gpu-contention pins one replica per system, DistServe included.
        driver = ScenarioDriver(
            ScenarioCase(SCENARIOS["gpu-contention"], "DistServe", 0)
        )
        driver.start()
        assert driver.system.initial_replicas == 1
