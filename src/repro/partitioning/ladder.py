"""Nested granularity ladder: the candidate set G of Eq. 4.

The ladder first computes the *finest* feasible plan, then derives every
coarser plan by optimally grouping contiguous fine stages (min-max DP over
fine-stage compute).  Because coarse stages are exact unions of fine
stages, runtime transitions between any two rungs only move whole fine
stages — merged stages "reuse existing memory layouts" exactly as §5
requires, and split stages load only the complement.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

from repro.cluster.gpu import GPU_MEMORY
from repro.models.profiler import ModelProfile
from repro.partitioning.partitioner import Partitioner
from repro.partitioning.plan import PartitionPlan, build_plan

# Every granularity a ladder can plan: the baselines' candidate set.
# FlexPipe's G of Eq. 4 (``core.flexpipe.STAGE_COUNTS``) drops the 1.
FULL_LADDER = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class LadderRung:
    """One granularity: a plan plus its mapping onto the finest rung."""

    n_stages: int
    plan: PartitionPlan
    # groups[k] = (first_fine_stage, last_fine_stage_exclusive) merged into
    # coarse stage k of this rung.
    groups: tuple[tuple[int, int], ...]


class GranularityLadder:
    """Builds and indexes the nested plans for one model."""

    def __init__(
        self, profile: ModelProfile, *, stage_counts: tuple[int, ...] = FULL_LADDER
    ):
        self.profile = profile
        counts = tuple(sorted(set(stage_counts)))
        partitioner = Partitioner(profile)
        feasible = self._feasible_counts(counts, partitioner)
        if not feasible:
            raise ValueError(
                f"{profile.spec.name}: no feasible granularity among {counts}"
            )
        self.fine_plan = partitioner.plan(feasible[-1])
        self._rungs = self._group_rungs(feasible)
        self.stage_counts = tuple(sorted(self._rungs))  # bind's copy shares it

    def bind(self, profile: ModelProfile) -> "GranularityLadder":
        """This ladder for ``profile``'s tenant, a model of the same shape:
        the same rungs, with every plan carrying the tenant's name."""
        name = profile.spec.name
        if profile.spec.shape != self.profile.spec.shape:
            raise ValueError(f"{name} does not have the shape of {self.profile.spec.name}")
        bound = copy.copy(self)
        bound.profile = profile
        bound._rungs = {
            n: replace(rung, plan=replace(rung.plan, model_name=name))
            for n, rung in self._rungs.items()
        }
        bound.fine_plan = bound._rungs[self.finest].plan
        return bound

    # ------------------------------------------------------------------
    @property
    def finest(self) -> int:
        return self.stage_counts[-1]

    @property
    def coarsest(self) -> int:
        return self.stage_counts[0]

    def rung(self, n_stages: int) -> LadderRung:
        try:
            return self._rungs[n_stages]
        except KeyError:
            raise KeyError(
                f"{self.profile.spec.name}: no {n_stages}-stage rung; "
                f"available: {self.stage_counts}"
            ) from None

    def plan(self, n_stages: int) -> PartitionPlan:
        return self.rung(n_stages).plan

    # ------------------------------------------------------------------
    def _feasible_counts(self, counts, partitioner) -> list[int]:
        """Counts whose plans satisfy memory + boundary-availability limits."""
        out = []
        # Count only the boundaries the partitioner will actually cut at
        # (its quality filter drops mid-block cuts): shallow models can
        # have fewer legal positions than raw graph cut points.
        n_boundaries = partitioner.n_positions
        total = self.profile.graph.total_param_bytes
        for count in counts:
            if count > n_boundaries:
                continue
            # A K-stage plan needs every stage under the memory cap; a
            # necessary condition is total/K <= cap (balanced), a sufficient
            # check is done by the DP itself — use the cheap necessary test
            # plus a guard for the single-stage case.
            if total / count > GPU_MEMORY and count > 1:
                continue
            if count == 1 and total > GPU_MEMORY:
                continue
            out.append(count)
        return out

    def _group_rungs(self, counts: list[int]) -> dict[int, LadderRung]:
        """Min-max grouping of fine stages into each of ``counts`` coarse
        stages: one DP, as row ``k`` of its table is the same for every count."""
        fine = self.fine_plan.stages
        n_fine = len(fine)
        identity = tuple((i, i + 1) for i in range(n_fine))
        rungs = {n_fine: LadderRung(n_fine, self.fine_plan, identity)}
        coarse = [count for count in counts if count < n_fine]

        prefix = [0.0]
        bytes_prefix = [0.0]
        for s in fine:
            prefix.append(prefix[-1] + self.profile.stage_compute_time(s.profile, 1))
            bytes_prefix.append(bytes_prefix[-1] + s.param_bytes)

        infinity = math.inf

        def group_cost(i: int, j: int) -> float:
            """Cost of merging fine stages [i, j) into one coarse stage."""
            if bytes_prefix[j] - bytes_prefix[i] > GPU_MEMORY:
                return infinity
            return prefix[j] - prefix[i]

        # dp[k][j]: min bottleneck for first k groups covering fine[0:j].
        top = max(coarse, default=0)
        dp = [[infinity] * (n_fine + 1) for _ in range(top + 1)]
        arg = [[-1] * (n_fine + 1) for _ in range(top + 1)]
        dp[0][0] = 0.0
        for k in range(1, top + 1):
            for j in range(k, n_fine + 1):
                for i in range(k - 1, j):
                    if math.isinf(dp[k - 1][i]):
                        continue
                    cand = max(dp[k - 1][i], group_cost(i, j))
                    if cand < dp[k][j]:
                        dp[k][j] = cand
                        arg[k][j] = i
        for n_stages in coarse:
            if math.isinf(dp[n_stages][n_fine]):
                raise ValueError(
                    f"{self.profile.spec.name}: no feasible {n_stages}-stage grouping"
                )
            # Back-track group boundaries in fine-stage space.
            bounds = [n_fine]
            j = n_fine
            for k in range(n_stages, 0, -1):
                j = arg[k][j]
                bounds.append(j)
            bounds.reverse()  # [0, ..., n_fine]
            groups = tuple((bounds[i], bounds[i + 1]) for i in range(n_stages))
            # Convert fine-stage groups to operator boundaries for the plan.
            op_boundaries = [fine[hi - 1].end for (_, hi) in groups]
            plan = build_plan(self.profile, op_boundaries, dp[n_stages][n_fine])
            rungs[n_stages] = LadderRung(n_stages, plan, groups)
        return rungs
