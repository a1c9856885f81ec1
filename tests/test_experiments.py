"""Tests for the experiment harness, the figure workloads and the systems
registry."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import deployment, flexpipe
from repro.experiments import figures
from repro.experiments.common import build_environment
from repro.experiments.runner import ExperimentRunner
from repro.experiments.systems import SYSTEMS, build_system
from repro.models import costs
from repro.partitioning import partitioner
from repro.refactoring import executor, granularity
from repro.scaling import affinity, autoscaler
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
    """A figure experiment's configuration: ``figure_spec``'s paper
    baseline and the world ``build_environment`` makes from it."""

    def test_defaults_match_paper_baseline(self):
        spec = figures.figure_spec("t")
        (primary,) = spec.models
        assert primary.segments[0].qps == 20.0  # §9.1: "baseline of 20 QPS"
        assert primary.model == "OPT-66B"
        assert (primary.prompt_median, primary.output_median) == (128, 8)
        assert (spec.cluster, spec.batch_cap) == ("paper", 32)

    def test_specs_include_background_model(self, ctx):
        spec = figures.figure_spec("t", background="BERT-21B")
        system = build_system("FlexPipe", ctx, spec)
        assert list(system.specs) == ["OPT-66B", "BERT-21B"]
        system.shutdown()
        system = build_system("FlexPipe", ctx, figures.figure_spec("t"))
        assert list(system.specs) == ["OPT-66B"]
        system.shutdown()

    def test_unknown_cluster_kind_rejected(self):
        with pytest.raises(ValueError):
            build_environment(0, "exotic")

    def test_build_environment_warms_fragmentation(self):
        sim, cluster, streams, frag = build_environment(0)
        assert frag is not None
        assert cluster.subscription_rate() > 1.0
        frag.stop()

    def test_fragmentation_can_be_disabled(self):
        _, cluster, _, frag = build_environment(0, fragmentation=False)
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
            figures.fig3_rows(
                cvs=(1.0,), runner=ExperimentRunner(jobs=1, use_cache=False)
            )
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
            build_system("vLLM", ctx, figures.figure_spec("t"))

    def test_builds_each(self, ctx):
        spec = figures.figure_spec("t", qps=5.0)
        for name in SYSTEMS:
            system = build_system(name, ctx, spec)
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


def _scaler_values(scaler) -> dict | None:
    """The effective autoscaler settings of one tenant (None: no scaler)."""
    if scaler is None:
        return None
    cfg = scaler.config
    return {
        "interval": cfg.interval,
        "idle_window": cfg.idle_window,
        "min_replicas": cfg.min_replicas,
        "max_replicas": cfg.max_replicas,
        "cooldown": cfg.scale_out_cooldown,
        "cv_headroom": cfg.cv_headroom,
        "target_utilization": autoscaler.TARGET_UTILIZATION,
        "beta": (granularity.BETA1, granularity.BETA2),
        "queue_factor": autoscaler.QUEUE_FACTOR,
    }


def _eq9(system) -> tuple[float, float]:
    """(γ0, α) of Eq. 9 as the system's interference path applies them."""
    gpu = SimpleNamespace(colocated_model_count=2)
    system.max_cv = lambda: 0.0
    calm = system._interference(gpu) - 1.0  # γ0
    system.max_cv = lambda: 2.0
    bursty = system._interference(gpu) - 1.0  # γ0 (1 + 4α)
    del system.max_cv
    return round(calm, 12), round((bursty / calm - 1.0) / 4.0, 12)


def _hyperparameters(system, model: str) -> dict:
    """Every paper hyper-parameter one system applies to ``model``, and
    what it wires into the shared substrate: the factory's loading
    speed-up, the colocation preference, a warm cache, a scaling
    coordinator, and whether it autoscales at all."""
    monitor = system.monitors[model]
    replica = system.factory.deploy(
        system.profiles[model], system.ctx.ladder(system.specs[model], (4,)).plan(4)
    )
    out = {
        "eq9": _eq9(system),
        "cv_window": monitor.window.window,
        "cv_refresh": system.cv_refresh,
        "queue_sample_interval": system._sampler.interval,
        "batcher_max_wait": replica.batcher.config.max_wait,
        "startup": (
            system.factory.startup_overhead,
            deployment.WARM_STARTUP_FACTOR,
        ),
        "loading_speedup": system.factory.loading_speedup,
        "prefer_colocation": system.prefer_colocation,
        "warm_cache": system.factory.warm_cache is not None,
        "coordinator": system.factory.coordinator is not None,
        "autoscaled": bool(system.autoscalers),
        "autoscaler": _scaler_values(system.autoscalers.get(model)),
    }
    if type(system).__name__ != "FlexPipeSystem":
        return out
    state = system._models[model]
    out.update(
        eq4=(
            state.policy.alpha,
            state.policy.sigma,
            {k: e.cv_setpoint for k, e in state.policy.estimates.items()},
        ),
        # Eq. 11's scale-out rung at calm, mid-burst and saturated inputs.
        eq11=[
            system.autoscalers[model].plan_for(cv, queue).n_stages
            for cv, queue in ((0.0, 0), (2.0, 100), (4.0, 512))
        ],
        control_interval=system._controller.interval,
        refactor_dwell=flexpipe.REFACTOR_DWELL,
        switch_margin=flexpipe.SWITCH_MARGIN,
        affinity=(affinity.W_T, affinity.W_G, affinity.DECAY),
        decision=(executor.DECISION_LATENCY, executor.SWITCH_PAUSE),
    )
    return out


# The pinned hyper-parameters of TestProvisioningWitness (paper baseline).
_SHARED = {
    "eq9": (0.08, 0.25),
    "cv_window": 30.0,
    "cv_refresh": 0.5,
    "queue_sample_interval": 0.25,
    "batcher_max_wait": 0.3,
    "startup": (5.0, 0.2),
    "loading_speedup": 1.0,
    "prefer_colocation": False,
    "warm_cache": False,
    "coordinator": False,
}
_REACTIVE = {
    "interval": 0.5,
    "idle_window": 30.0,
    "min_replicas": 1,
    "max_replicas": 8,
    "cooldown": 1.0,
    "cv_headroom": 0.0,
    "target_utilization": 0.6,
    "beta": (1.0, 0.02),
    "queue_factor": 1.5,
}
_FLEXPIPE = {
    **_SHARED,
    "cv_refresh": 1.0,
    "warm_cache": True,
    "coordinator": True,
    "autoscaled": True,
    "autoscaler": {
        **_REACTIVE,
        "idle_window": 300.0,
        "min_replicas": 2,
        "max_replicas": 16,
        "cv_headroom": 0.25,
    },
    "eq4": (0.5, 1.2, {2: 0.25, 4: 1.0, 8: 4.0, 16: 16.0, 32: 64.0}),
    "eq11": [4, 32, 32],
    "control_interval": 1.0,
    "refactor_dwell": 20.0,
    "switch_margin": 1.35,
    "affinity": (1.0, 0.25, 1.0 / 120.0),
    "decision": (0.002, 0.001),
}


def _hardware(system) -> dict:
    """The calibration and hardware values one live system reads: the
    Table 2 cost model, the Eq. 2 partitioner, the devices and links."""
    cluster = system.ctx.cluster
    return {
        "cost_model": {
            "compute_fixed": costs.COMPUTE_FIXED,
            "compute_per_byte": costs.COMPUTE_PER_BYTE,
            "peak_flops": costs.PEAK_FLOPS,
            "prefill_overhead": costs.PREFILL_OVERHEAD,
            "hop_overhead": costs.HOP_OVERHEAD,
            "hop_bandwidth": costs.NIC_BANDWIDTH,
            "load_points": costs.LOAD_POINTS,
            "warm_load_overhead": costs.WARM_LOAD_OVERHEAD,
            "pcie_bandwidth": costs.PCIE_BANDWIDTH,
            "gpu_memory": costs.GPU_MEMORY,
            "runtime_reserved": costs.RUNTIME_RESERVED,
            "max_batch_cap": costs.MAX_BATCH_CAP,
        },
        "eq2": {
            "bandwidth": partitioner.NIC_BANDWIDTH,
            "overlap_budget": partitioner.OVERLAP_BUDGET,
            "boundary_weight": partitioner.BOUNDARY_WEIGHT,
            "reference_batch": partitioner.REFERENCE_BATCH,
            "gpu_memory": partitioner.GPU_MEMORY,
            "min_boundary_quality": partitioner.MIN_BOUNDARY_QUALITY,
        },
        "gpu_memory": {g.memory for g in cluster.gpus},
        "server_links": {
            (s.pcie.spec.bandwidth, s.nic.spec.bandwidth, s.ssd.spec.bandwidth)
            for s in cluster.servers
        },
        "rack_uplinks": {rack.uplink.spec.bandwidth for rack in cluster.racks},
        "local_transfer": system.ctx.data_mover.costs.local_bandwidth,
    }


_GIB = 1024**3
# The pinned hardware values of TestProvisioningWitness (Table 2, §9.1).
_HARDWARE = {
    "cost_model": {
        "compute_fixed": 1.06e-3,
        "compute_per_byte": 2.296e-3 / _GIB,
        "peak_flops": 150e12,
        "prefill_overhead": 0.5e-3,
        "hop_overhead": 1.9e-3,
        "hop_bandwidth": 12.5 * _GIB,
        "load_points": (
            (3.75 * _GIB, 5.43),
            (7.5 * _GIB, 9.19),
            (15.0 * _GIB, 13.05),
            (30.0 * _GIB, 47.14),
        ),
        "warm_load_overhead": 0.05,
        "pcie_bandwidth": 24.0 * _GIB,
        "gpu_memory": 80.0 * _GIB,
        "runtime_reserved": 0.0,
        "max_batch_cap": 1024,
    },
    "eq2": {
        "bandwidth": 12.5 * _GIB,
        "overlap_budget": 2.0,
        "boundary_weight": 5e-3,
        "reference_batch": 1,
        "gpu_memory": 80.0 * _GIB,
        "min_boundary_quality": 0.5,
    },
    "gpu_memory": {80.0 * _GIB},
    "server_links": {(24.0 * _GIB, 12.5 * _GIB, 6.0 * _GIB)},
    "rack_uplinks": {50.0 * _GIB},
    "local_transfer": 24.0 * _GIB,
}


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

    HYPERPARAMETERS = {
        "AlpaServe": {**_SHARED, "autoscaled": False, "autoscaler": None},
        "DistServe": {**_SHARED, "autoscaled": True, "autoscaler": _REACTIVE},
        "FlexPipe": _FLEXPIPE,
        "MuxServe": {
            **_SHARED,
            "eq9": (0.12, 0.25),
            "prefer_colocation": True,
            "autoscaled": False,
            "autoscaler": None,
        },
        "ServerlessLLM": {
            **_SHARED,
            "startup": (12.0, 0.2),
            "loading_speedup": 3.0,
            "autoscaled": True,
            "autoscaler": {**_REACTIVE, "idle_window": 10.0},
        },
        "Tetris": {
            **_SHARED,
            "loading_speedup": 1.3,
            "prefer_colocation": True,
            "autoscaled": True,
            "autoscaler": {**_REACTIVE, "interval": 2.0, "cooldown": 5.0},
        },
    }

    @staticmethod
    def _build(name, **overrides):
        # figure_spec's defaults are the paper baseline: OPT-66B at 20 QPS,
        # 128/8-token requests, batch cap 32 on the fragmented paper cluster.
        driver = ScenarioDriver(
            ScenarioCase(figures.figure_spec("witness"), name, 0, overrides=overrides)
        )
        driver.start()
        return driver.system

    def test_registry_lists_every_system(self):
        assert sorted(SYSTEMS) == sorted(self.DEFAULT)

    @pytest.mark.parametrize("name", sorted(DEFAULT))
    def test_paper_config(self, name):
        system = self._build(name)
        assert _provisioned(system) == self.DEFAULT[name]
        system.shutdown()

    @pytest.mark.parametrize("name", sorted(HYPERPARAMETERS))
    def test_paper_hyperparameters(self, name):
        system = self._build(name)
        assert _hyperparameters(system, "OPT-66B") == self.HYPERPARAMETERS[name]
        system.shutdown()

    @pytest.mark.parametrize("name", sorted(DEFAULT))
    def test_paper_hardware(self, name):
        system = self._build(name)
        assert _hardware(system) == _HARDWARE
        system.shutdown()

    def test_coldstart_economy_routes_flexpipe_overrides(self):
        # cache_policy, pipelined_loading, scale_to_zero and idle_window
        # reach FlexPipe through spec_overrides; the rest stay the paper's.
        driver = ScenarioDriver(
            ScenarioCase(SCENARIOS["coldstart-economy"], "FlexPipe", 0)
        )
        driver.start()
        system = driver.system
        assert system.warm_cache.policy == "gdsf"
        assert system.pipelined_loading and system.factory.pipelined_loading
        expected = {
            **_FLEXPIPE,
            "autoscaler": {
                **_FLEXPIPE["autoscaler"],
                "idle_window": 8.0,
                "min_replicas": 0,
            },
            "eq4": (0.5, 1.2, {2: 0.25, 4: 1.0, 8: 4.0, 16: 16.0}),
            "eq11": [4, 16, 16],
        }
        assert _hyperparameters(system, "FLEET-0-10g") == expected

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
