"""Partition plans: the output of the Eq. 2 optimiser."""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.profiler import ModelProfile, StageProfile


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage: a contiguous operator range plus its profile."""

    index: int
    profile: StageProfile
    max_batch: int

    @property
    def start(self) -> int:
        return self.profile.start

    @property
    def end(self) -> int:
        return self.profile.end

    @property
    def param_bytes(self) -> float:
        return self.profile.param_bytes


@dataclass(frozen=True)
class PartitionPlan:
    """A complete K-stage partition of one model."""

    model_name: str
    stages: tuple[StagePlan, ...]
    objective: float

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def max_batch(self) -> int:
        """Pipeline batch capacity = the most constrained stage's capacity."""
        return min(s.max_batch for s in self.stages)

    @property
    def cuts(self) -> tuple[int, ...]:
        """Operator indices at which the model is cut (stage end-exclusive)."""
        return tuple(s.end for s in self.stages[:-1])

    def memory_per_stage(self, batch: int, kv_bytes_per_request: float) -> list[float]:
        """Per-GPU memory demand at ``batch``: parameters + KV reservation.

        ``kv_bytes_per_request`` is the whole-model per-request KV footprint;
        each stage holds its KV fraction of it.
        """
        total_kv_ptok = sum(s.profile.kv_bytes_per_token for s in self.stages)
        out = []
        for stage in self.stages:
            fraction = (
                stage.profile.kv_bytes_per_token / total_kv_ptok
                if total_kv_ptok > 0
                else 0.0
            )
            out.append(stage.param_bytes + batch * kv_bytes_per_request * fraction)
        return out

    def describe(self) -> str:
        parts = [
            f"{self.model_name}: {self.n_stages} stages, max_batch={self.max_batch}"
        ]
        for stage in self.stages:
            parts.append(
                f"  stage {stage.index}: ops[{stage.start}:{stage.end}] "
                f"{stage.param_bytes / 2**30:.2f} GiB, batch<= {stage.max_batch}"
            )
        return "\n".join(parts)


def build_plan(
    model_profile: ModelProfile, boundaries: list[int], objective: float
) -> PartitionPlan:
    """Assemble a plan from stage end-indices (exclusive, last == n_ops)."""
    stages = []
    start = 0
    for k, end in enumerate(boundaries):
        profile = model_profile.stage(start, end)
        stages.append(
            StagePlan(
                index=k,
                profile=profile,
                max_batch=model_profile.stage_max_batch(profile),
            )
        )
        start = end
    return PartitionPlan(
        model_name=model_profile.spec.name,
        stages=tuple(stages),
        objective=objective,
    )
