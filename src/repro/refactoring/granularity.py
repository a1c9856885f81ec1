"""Granularity adaptation (Eq. 4) and multi-granular instance counts (Eq. 5).

Per-rung throughput/latency estimates come from the calibrated cost model
("cached performance profiles" in §6.3); the Eq. 4 score trades them off
and aligns the choice with the live CV via the exponential matching term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.profiler import ModelProfile
from repro.partitioning.batch_scaling import activation_bytes
from repro.partitioning.ladder import GranularityLadder
from repro.partitioning.plan import PartitionPlan
from repro.pipeline.sizing import operating_batch


def estimate_throughput(
    profile: ModelProfile,
    plan: PartitionPlan,
    *,
    batch: int | None = None,
    prompt_tokens: int = 512,
    output_tokens: int = 16,
) -> float:
    """Steady-state requests/second of one replica of ``plan``.

    The pipeline admits a new batch every bottleneck-stage busy period, so
    throughput = batch / max_k busy_k(batch).
    """
    b = batch or plan.max_batch
    b = max(min(b, plan.max_batch), 1)
    cm = profile.cost_model
    bottleneck = 0.0
    for stage in plan.stages:
        busy = cm.prefill_time(
            stage.profile.flops_per_token, b * prompt_tokens
        ) + output_tokens * cm.decode_iter_time(stage.param_bytes, b)
        bottleneck = max(bottleneck, busy)
    return b / bottleneck


def estimate_latency(
    profile: ModelProfile,
    plan: PartitionPlan,
    *,
    batch: int = 1,
    prompt_tokens: int = 512,
    output_tokens: int = 16,
) -> float:
    """Unloaded single-batch response time of ``plan`` (exec + comm)."""
    cm = profile.cost_model
    total = 0.0
    stages = plan.stages
    for k, stage in enumerate(stages):
        total += cm.prefill_time(stage.profile.flops_per_token, batch * prompt_tokens)
        total += output_tokens * cm.decode_iter_time(stage.param_bytes, batch)
        if k < len(stages) - 1:
            act_ptok = stage.profile.boundary_act_bytes_per_token
            base = 128 * act_ptok
            total += cm.hop_time(activation_bytes(base * prompt_tokens, batch))
            total += output_tokens * cm.hop_time(activation_bytes(base, batch))
    return total


def instance_count(
    required_rate: float,
    rung_throughput: float,
    n_stages: int,
    *,
    beta1: float = 1.0,
    beta2: float = 0.02,
) -> int:
    """Eq. 5: M(g_k) = ceil(mu_total / mu_k), mu_k = T_k / (b1 + b2*eta_k)."""
    if rung_throughput <= 0:
        raise ValueError("rung_throughput must be positive")
    mu_k = rung_throughput / (beta1 + beta2 * n_stages)
    return max(int(math.ceil(required_rate / mu_k)), 1)


@dataclass(frozen=True)
class RungEstimate:
    """Cached performance profile of one granularity rung."""

    n_stages: int
    batch: int
    throughput: float  # T_k (req/s per replica at full batch)
    latency: float  # L_k (unloaded single-request response time)
    cv_setpoint: float  # ν_k


class GranularityPolicy:
    """Eq. 4 selection over the ladder's rungs."""

    def __init__(
        self,
        profile: ModelProfile,
        ladder: GranularityLadder,
        *,
        alpha: float = 0.5,
        sigma: float = 1.2,
        cv_setpoint_scale: float = 4.0,
        prompt_tokens: int = 512,
        output_tokens: int = 16,
        batch_cap: int | None = None,
    ):
        if not 0 <= alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.profile = profile
        self.ladder = ladder
        self.alpha = alpha
        self.sigma = sigma
        self.estimates: dict[int, RungEstimate] = {}
        for count in ladder.stage_counts:
            plan = ladder.plan(count)
            batch = operating_batch(plan, batch_cap)
            self.estimates[count] = RungEstimate(
                n_stages=count,
                batch=batch,
                throughput=estimate_throughput(
                    profile,
                    plan,
                    batch=batch,
                    prompt_tokens=prompt_tokens,
                    output_tokens=output_tokens,
                ),
                latency=estimate_latency(
                    profile,
                    plan,
                    prompt_tokens=prompt_tokens,
                    output_tokens=output_tokens,
                ),
                cv_setpoint=(count / cv_setpoint_scale) ** 2,
            )
        self._t_max = max(e.throughput for e in self.estimates.values())
        self._l_min = min(e.latency for e in self.estimates.values())

    # ------------------------------------------------------------------
    def score(self, n_stages: int, cv: float) -> float:
        """Eq. 4 score of one rung at the current ν_t."""
        est = self.estimates[n_stages]
        quality = self.alpha * (est.throughput / self._t_max) + (
            1 - self.alpha
        ) * (self._l_min / est.latency)
        match = math.exp(-abs(cv - est.cv_setpoint) / self.sigma)
        return quality * match

    def select(self, cv: float) -> int:
        """g* = argmax over the candidate set G (Eq. 4)."""
        return max(self.estimates, key=lambda k: self.score(k, cv))

    def scores(self, cv: float) -> dict[int, float]:
        return {k: self.score(k, cv) for k in self.estimates}
