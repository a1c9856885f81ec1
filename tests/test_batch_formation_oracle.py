"""Batch formation against a recompute through the cost model.

``PipelineReplica._make_job`` memoises the batch-size-only factors of each
stage's cost per plan.  The reference below is the direct formula: one
call each to ``CostModel.prefill_time``, ``decode_iter_time``,
``hop_time`` and ``activation_bytes`` per stage.  The two must agree
bit for bit (``==``, not approx) for every zoo model, several ladder
rungs, every batch size up to the rung's ``max_batch``, and again after
``swap_stages`` installs another plan, so a stale memo fails here.
"""

from __future__ import annotations

import random
import statistics

import pytest

from repro.models.costs import CostModel
from repro.models.profiler import ModelProfile
from repro.models.transformer import build_transformer
from repro.models.zoo import MODEL_ZOO
from repro.partitioning.batch_scaling import activation_bytes
from repro.partitioning.ladder import GranularityLadder
from repro.pipeline.replica import PipelineReplica
from repro.simulation.engine import Simulator
from repro.workloads.requests import Request


def reference_costs(profile: ModelProfile, plan, requests):
    """(stage_busy, stage_prefill, handoff) straight from the cost model."""
    cm = profile.cost_model
    batch = len(requests)
    mean_prompt = statistics.fmean(r.prompt_tokens for r in requests)
    mean_out = statistics.fmean(r.output_tokens for r in requests)
    busy, prefill, handoff = [], [], []
    for k, stage in enumerate(plan.stages):
        p = cm.prefill_time(stage.profile.flops_per_token, batch * mean_prompt)
        prefill.append(p)
        busy.append(p + mean_out * cm.decode_iter_time(stage.param_bytes, batch))
        if k < plan.n_stages - 1:
            base = 128 * stage.profile.boundary_act_bytes_per_token
            handoff.append(
                cm.hop_time(activation_bytes(base * mean_prompt, batch))
                + mean_out * cm.hop_time(activation_bytes(base, batch))
            )
    return busy, prefill, handoff


def _request_pool(model: str, seed: int, size: int = 2048) -> list[Request]:
    rng = random.Random(seed)
    return [
        Request(rid, model, 0.0, rng.randint(1, 4096), rng.randint(1, 256), 5.0)
        for rid in range(size)
    ]


def _check_every_batch_size(replica, profile, plan, pool, rng) -> None:
    assert replica.plan is plan
    for batch in range(1, plan.max_batch + 1):
        start = rng.randrange(len(pool) - batch + 1)
        requests = pool[start : start + batch]
        job = replica._make_job(requests)
        busy, prefill, handoff = reference_costs(profile, plan, requests)
        assert job.stage_busy == busy, (plan.n_stages, batch)
        assert job.stage_prefill == prefill, (plan.n_stages, batch)
        assert job.handoff == handoff, (plan.n_stages, batch)


@pytest.mark.parametrize("model", sorted(MODEL_ZOO))
def test_make_job_is_bit_equal_to_the_cost_model(model):
    profile = ModelProfile(
        spec=MODEL_ZOO[model],
        graph=build_transformer(MODEL_ZOO[model]),
        cost_model=CostModel(),
    )
    ladder = GranularityLadder(profile)
    counts = ladder.stage_counts
    # Coarsest, finest, then a middle rung: each swap shrinks or grows
    # the chain, so a memo kept across swap_stages indexes wrong stages.
    rungs = [counts[0], counts[-1], counts[len(counts) // 2]]
    first = ladder.plan(rungs[0])
    # _make_job reads only the plan and the cost model; placement and
    # reservations play no part in it.
    replica = PipelineReplica(
        Simulator(),
        profile,
        first,
        [None] * first.n_stages,
        on_request_complete=lambda request: None,
    )
    pool = _request_pool(model, seed=len(model))
    rng = random.Random(0)
    _check_every_batch_size(replica, profile, first, pool, rng)
    for n_stages in rungs[1:]:
        plan = ladder.plan(n_stages)
        replica.swap_stages(plan, [None] * plan.n_stages)
        _check_every_batch_size(replica, profile, plan, pool, rng)
