"""The systems registry: every serving system, provisioned as in §9.

Static systems (AlpaServe, MuxServe) provision for peak: ~75% of peak
capacity always-on (§3.1's "conservative scaling strategies").  Serverless
systems (FlexPipe, ServerlessLLM, Tetris) hold a smaller always-on share —
FlexPipe's headline is 30% — and rely on elasticity for the rest.
:data:`SYSTEMS` states each system's provisioning as one row and
:func:`build_system` is the one builder over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.baselines import (
    AlpaServeSystem,
    DistServeSystem,
    MuxServeSystem,
    ServerlessLLMSystem,
    TetrisSystem,
)
from repro.baselines.base import snap_stages
from repro.core.context import ServingContext
from repro.core.flexpipe import FlexPipeSystem
from repro.core.serving import ServingSystem
from repro.models.zoo import get_model
from repro.partitioning.ladder import FULL_LADDER
from repro.pipeline.sizing import operating_batch
from repro.refactoring.granularity import estimate_throughput

if TYPE_CHECKING:
    from repro.scenarios.spec import ScenarioSpec

PEAK_MULTIPLIER = 3.0  # short-window peak rate over the mean at high CV
STATIC_FRACTION = 0.75  # always-on share for statically provisioned systems
SERVERLESS_FRACTION = 0.30  # FlexPipe's reduced always-on reservation
OPERATING_BATCH = 8  # planning batch (capacity planners do not assume max)


def replicas_for_fraction(
    ctx: ServingContext,
    spec: ScenarioSpec,
    n_stages: int,
    fraction: float,
) -> int:
    """Replica count covering ``fraction`` of the primary tenant's
    estimated peak demand.

    Capacity planning uses a conservative operating batch rather than the
    granularity's maximum: the latter is only reached during deep bursts.
    """
    primary = spec.models[0]
    model = get_model(primary.model)
    profile = ctx.profile(model)
    ladder = ctx.ladder(model, FULL_LADDER)
    plan = ladder.plan(snap_stages(ladder, n_stages))  # the rung it serves
    throughput = estimate_throughput(
        profile,
        plan,
        batch=operating_batch(plan, OPERATING_BATCH),
        prompt_tokens=primary.prompt_median,
        output_tokens=primary.output_median,
    )
    peak = max(s.qps for s in primary.segments) * PEAK_MULTIPLIER
    return max(int(math.ceil(fraction * peak / throughput)), 1)


@dataclass(frozen=True)
class Provisioning:
    """How one system is provisioned for an experiment.

    ``always_on`` is the share of estimated peak demand its always-on
    replicas cover, planned at ``plan_stages`` stages — or, when that is
    None, at the plan the system itself chose (AlpaServe's and MuxServe's
    offline optimisers).  A row whose ``fixed`` overrides set
    ``initial_replicas`` has no ``always_on`` share.  ``fixed`` holds
    keyword arguments the system always gets unless the caller overrides
    them.
    """

    system: type[ServingSystem]
    always_on: float | None
    plan_stages: int | None = None
    fixed: tuple[tuple[str, Any], ...] = ()


SYSTEMS: dict[str, Provisioning] = {
    "FlexPipe": Provisioning(FlexPipeSystem, SERVERLESS_FRACTION, 4),
    "AlpaServe": Provisioning(AlpaServeSystem, STATIC_FRACTION),
    "MuxServe": Provisioning(MuxServeSystem, STATIC_FRACTION),
    "ServerlessLLM": Provisioning(ServerlessLLMSystem, SERVERLESS_FRACTION, 4),
    # No paged/pipeline-aware batching: Tetris serves at its own cap,
    # whatever the experiment's.
    "Tetris": Provisioning(
        TetrisSystem, SERVERLESS_FRACTION, 1, fixed=(("batch_cap", 16),)
    ),
    # Sized for the small chaos cluster: DistServe's paper defaults
    # (16 decode stages, peak-fraction replica counts) cannot even start
    # on 16 fragmented GPUs.
    "DistServe": Provisioning(
        DistServeSystem,
        None,
        fixed=(("initial_replicas", 2), ("decode_stages", 8)),
    ),
}

# The systems the paper-figure sweeps compare.  DistServe is left out
# (the paper's headline comparisons exclude it); the scenario engine and
# the chaos audit run every system in ``SYSTEMS``.
PAPER_SYSTEMS = ("FlexPipe", "AlpaServe", "MuxServe", "ServerlessLLM", "Tetris")


def build_system(
    name: str, ctx: ServingContext, spec: ScenarioSpec, **overrides
) -> ServingSystem:
    """Build system ``name`` as its :data:`SYSTEMS` row provisions it for
    ``spec``; ``overrides`` win over the row.

    The system serves every tenant of the spec, sized and shaped for the
    primary tenant (the first): its peak QPS, request shape and SLO, at
    the spec's batch cap unless the row fixes its own.
    """
    try:
        row = SYSTEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}"
        ) from None
    kwargs = {"batch_cap": spec.batch_cap, **dict(row.fixed), **overrides}
    initial = kwargs.pop("initial_replicas", None)
    chosen_plan = row.plan_stages is None and row.always_on is not None
    if initial is None and not chosen_plan:
        initial = replicas_for_fraction(ctx, spec, row.plan_stages, row.always_on)
    primary = spec.models[0]
    system = row.system(
        ctx,
        [get_model(script.model) for script in spec.models],
        # A statically provisioned system never scales out, so it always
        # starts at least one replica.
        initial_replicas=(initial or 1) if chosen_plan else initial,
        prompt_tokens=primary.prompt_median,
        output_tokens=primary.output_median,
        slo_deadline=primary.slo_latency,
        **kwargs,
    )
    if initial is None:
        # Provision for peak at the granularity the offline optimiser
        # actually chose (capacity planned at a different stage count
        # would systematically under- or over-provision).
        stages = system.plans[primary.model].n_stages
        system.initial_replicas = replicas_for_fraction(
            ctx, spec, stages, row.always_on
        )
    return system
