"""System factories with the paper's provisioning methodology.

Static systems (AlpaServe, MuxServe) provision for peak: ~75% of peak
capacity always-on (§3.1's "conservative scaling strategies").  Serverless
systems (FlexPipe, ServerlessLLM, Tetris) hold a smaller always-on share —
FlexPipe's headline is 30% — and rely on elasticity for the rest.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.baselines import (
    AlpaServeSystem,
    DistServeSystem,
    MuxServeSystem,
    ServerlessLLMSystem,
    TetrisSystem,
)
from repro.core.context import ServingContext
from repro.core.flexpipe import FlexPipeSystem
from repro.core.serving import ServingSystem
from repro.experiments.common import ExperimentConfig
from repro.refactoring.granularity import estimate_throughput

PEAK_MULTIPLIER = 3.0  # short-window peak rate over the mean at high CV
STATIC_FRACTION = 0.75  # always-on share for statically provisioned systems
SERVERLESS_FRACTION = 0.30  # FlexPipe's reduced always-on reservation
OPERATING_BATCH = 8  # planning batch (capacity planners do not assume max)


def replicas_for_fraction(
    ctx: ServingContext,
    cfg: ExperimentConfig,
    n_stages: int,
    fraction: float,
) -> int:
    """Replica count covering ``fraction`` of estimated peak demand.

    Capacity planning uses a conservative operating batch rather than the
    granularity's maximum: the latter is only reached during deep bursts.
    """
    profile = ctx.profile(cfg.spec)
    ladder = ctx.ladder(cfg.spec, (1, 2, 4, 8, 16, 32))
    counts = ladder.stage_counts
    stages = n_stages if n_stages in counts else min(
        counts, key=lambda c: abs(c - n_stages)
    )
    plan = ladder.plan(stages)
    throughput = estimate_throughput(
        profile,
        plan,
        batch=min(OPERATING_BATCH, plan.max_batch),
        prompt_tokens=cfg.prompt_median,
        output_tokens=cfg.output_median,
    )
    peak = cfg.qps * PEAK_MULTIPLIER
    return max(int(math.ceil(fraction * peak / throughput)), 1)


def make_flexpipe(
    ctx: ServingContext, cfg: ExperimentConfig, **overrides
) -> FlexPipeSystem:
    initial = overrides.pop(
        "initial_replicas",
        replicas_for_fraction(ctx, cfg, 4, SERVERLESS_FRACTION),
    )
    overrides.setdefault("batch_cap", cfg.batch_cap)
    return FlexPipeSystem(
        ctx,
        cfg.specs,
        initial_replicas=initial,
        prompt_tokens=cfg.prompt_median,
        output_tokens=cfg.output_median,
        slo_deadline=cfg.slo_latency,
        **overrides,
    )


def make_alpaserve(ctx: ServingContext, cfg: ExperimentConfig, **overrides) -> AlpaServeSystem:
    initial = overrides.pop("initial_replicas", None)
    overrides.setdefault("batch_cap", cfg.batch_cap)
    system = AlpaServeSystem(
        ctx,
        cfg.specs,
        initial_replicas=initial or 1,
        prompt_tokens=cfg.prompt_median,
        output_tokens=cfg.output_median,
        slo_deadline=cfg.slo_latency,
        **overrides,
    )
    if initial is None:
        # Provision for peak at the granularity the offline optimiser
        # actually chose (capacity planned at a different stage count
        # would systematically under- or over-provision).
        stages = system.plans[cfg.model].n_stages
        system.initial_replicas = replicas_for_fraction(
            ctx, cfg, stages, STATIC_FRACTION
        )
    return system


def make_muxserve(ctx: ServingContext, cfg: ExperimentConfig, **overrides) -> MuxServeSystem:
    initial = overrides.pop("initial_replicas", None)
    overrides.setdefault("batch_cap", cfg.batch_cap)
    system = MuxServeSystem(
        ctx,
        cfg.specs,
        initial_replicas=initial or 1,
        prompt_tokens=cfg.prompt_median,
        output_tokens=cfg.output_median,
        slo_deadline=cfg.slo_latency,
        **overrides,
    )
    if initial is None:
        stages = system.plans[cfg.model].n_stages
        system.initial_replicas = replicas_for_fraction(
            ctx, cfg, stages, STATIC_FRACTION
        )
    return system


def make_serverlessllm(
    ctx: ServingContext, cfg: ExperimentConfig, **overrides
) -> ServerlessLLMSystem:
    initial = overrides.pop(
        "initial_replicas",
        replicas_for_fraction(ctx, cfg, 4, SERVERLESS_FRACTION),
    )
    overrides.setdefault("batch_cap", cfg.batch_cap)
    return ServerlessLLMSystem(
        ctx,
        cfg.specs,
        initial_replicas=initial,
        prompt_tokens=cfg.prompt_median,
        output_tokens=cfg.output_median,
        slo_deadline=cfg.slo_latency,
        **overrides,
    )


def make_tetris(ctx: ServingContext, cfg: ExperimentConfig, **overrides) -> TetrisSystem:
    initial = overrides.pop(
        "initial_replicas",
        replicas_for_fraction(ctx, cfg, 1, SERVERLESS_FRACTION),
    )
    return TetrisSystem(
        ctx,
        cfg.specs,
        initial_replicas=initial,
        prompt_tokens=cfg.prompt_median,
        output_tokens=cfg.output_median,
        slo_deadline=cfg.slo_latency,
        **overrides,
    )


def make_distserve(
    ctx: ServingContext, cfg: ExperimentConfig, **overrides
) -> DistServeSystem:
    initial = overrides.pop(
        "initial_replicas",
        replicas_for_fraction(ctx, cfg, 4, STATIC_FRACTION),
    )
    overrides.setdefault("batch_cap", cfg.batch_cap)
    return DistServeSystem(
        ctx,
        cfg.specs,
        initial_replicas=initial,
        prompt_tokens=cfg.prompt_median,
        output_tokens=cfg.output_median,
        slo_deadline=cfg.slo_latency,
        **overrides,
    )


# The registry the paper-figure sweeps iterate.  DistServe is kept out of
# it (the paper's headline comparisons exclude it) but is exercised by
# the scenario engine and the chaos audit via ``CHAOS_SYSTEMS``.
SYSTEM_FACTORIES: dict[str, Callable[..., ServingSystem]] = {
    "FlexPipe": make_flexpipe,
    "AlpaServe": make_alpaserve,
    "MuxServe": make_muxserve,
    "ServerlessLLM": make_serverlessllm,
    "Tetris": make_tetris,
}


def _chaos_distserve(ctx, cfg, **overrides):
    """DistServe sized for the small chaos cluster (its paper-provisioned
    defaults — 16 decode stages, peak-fraction replica counts — cannot
    even start on 16 fragmented GPUs)."""
    overrides.setdefault("initial_replicas", 2)
    overrides.setdefault("decode_stages", 8)
    return make_distserve(ctx, cfg, **overrides)


# Every system the scenario engine and the chaos audit run: the
# figure-sweep systems plus DistServe.
CHAOS_SYSTEMS = dict(SYSTEM_FACTORIES, DistServe=_chaos_distserve)


def make_system(name: str, ctx: ServingContext, cfg: ExperimentConfig, **overrides):
    try:
        factory = SYSTEM_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {sorted(SYSTEM_FACTORIES)}"
        ) from None
    return factory(ctx, cfg, **overrides)
