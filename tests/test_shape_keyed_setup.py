"""Shape-keyed set-up: graphs, profiles and ladders are shared by every
tenant of one model shape, and only the name is bound per tenant.

The oracle below is the name-keyed path the shared one replaced: a fresh
graph and profile per model, the Eq. 2 DP re-evaluating every stage cost
once per stage count, and one grouping DP per ladder rung.  The shared
path must reproduce its plans, rung groups, objectives and stage profiles
exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from repro.cluster.gpu import GPU_MEMORY
from repro.core import context
from repro.core.context import get_graph, get_ladder, get_profile
from repro.models.costs import CostModel
from repro.models.profiler import ModelProfile
from repro.models.transformer import build_transformer
from repro.models.zoo import MODEL_ZOO, ModelSpec, get_model
from repro.partitioning.ladder import LadderRung
from repro.partitioning.partitioner import InfeasiblePartition, Partitioner
from repro.partitioning.plan import build_plan
from repro.scenarios import ArrivalSegment, ModelScript, ScenarioCase, ScenarioEvent, ScenarioSpec
from repro.scenarios.driver import ScenarioDriver, run_scenario_case
from repro.scenarios.library import get_scenario
from repro.transfer.links import GB

FLEXPIPE_COUNTS = (2, 4, 8, 16, 32)
BASELINE_COUNTS = (1, 2, 4, 8, 16, 32)
STAGE_SETS = (FLEXPIPE_COUNTS, BASELINE_COUNTS)


# ----------------------------------------------------------------------
# Oracle: the name-keyed, per-k set-up
# ----------------------------------------------------------------------
class PerKPartitioner(Partitioner):
    """Eq. 2 DP that evaluates ``_stage_cost`` once per (k, i, j)."""

    def plan(self, n_stages: int):
        n_ops = len(self.graph)
        if n_stages == 1:
            cost = self._stage_cost(0, n_ops)
            if cost is None:
                raise InfeasiblePartition(
                    f"{self.profile.spec.name} does not fit on a single GPU"
                )
            return build_plan(self.profile, [n_ops], cost)
        ends = [i + 1 for i in self._cuts] + [n_ops]
        n_pos = len(ends)
        if n_stages > n_pos:
            raise InfeasiblePartition(f"{self.profile.spec.name}: too many stages")
        infinity = math.inf
        prev = [self._pair(self._stage_cost(0, ends[j])) for j in range(n_pos)]
        choice = []
        for k in range(1, n_stages):
            cur = [(infinity, infinity)] * n_pos
            arg = [-1] * n_pos
            for j in range(k, n_pos):
                best, best_i = (infinity, infinity), -1
                for i in range(k - 1, j):
                    base = prev[i]
                    if math.isinf(base[0]):
                        continue
                    cost = self._stage_cost(ends[i], ends[j])
                    if cost is None:
                        continue
                    cand = (max(base[0], cost), base[1] + cost)
                    if cand < best:
                        best, best_i = cand, i
                cur[j] = best
                arg[j] = best_i
            prev = cur
            choice.append(arg)
        final = prev[n_pos - 1]
        if math.isinf(final[0]):
            raise InfeasiblePartition(
                f"{self.profile.spec.name}: no feasible {n_stages}-stage plan "
                f"under the memory constraint"
            )
        boundaries = [ends[n_pos - 1]]
        j = n_pos - 1
        for k in range(n_stages - 1, 0, -1):
            j = choice[k - 1][j]
            boundaries.append(ends[j])
        boundaries.reverse()
        return build_plan(self.profile, boundaries, final[1])


def oracle_group_rung(profile, fine_plan, n_stages) -> LadderRung:
    """One min-max grouping DP for one rung."""
    fine = fine_plan.stages
    n_fine = len(fine)
    if n_stages == n_fine:
        return LadderRung(n_stages, fine_plan, tuple((i, i + 1) for i in range(n_fine)))
    prefix, bytes_prefix = [0.0], [0.0]
    for s in fine:
        prefix.append(prefix[-1] + profile.stage_compute_time(s.profile, 1))
        bytes_prefix.append(bytes_prefix[-1] + s.param_bytes)
    gpu_memory = GPU_MEMORY

    def group_cost(i, j):
        if bytes_prefix[j] - bytes_prefix[i] > gpu_memory:
            return math.inf
        return prefix[j] - prefix[i]

    dp = [[math.inf] * (n_fine + 1) for _ in range(n_stages + 1)]
    arg = [[-1] * (n_fine + 1) for _ in range(n_stages + 1)]
    dp[0][0] = 0.0
    for k in range(1, n_stages + 1):
        for j in range(k, n_fine + 1):
            for i in range(k - 1, j):
                if math.isinf(dp[k - 1][i]):
                    continue
                cand = max(dp[k - 1][i], group_cost(i, j))
                if cand < dp[k][j]:
                    dp[k][j] = cand
                    arg[k][j] = i
    if math.isinf(dp[n_stages][n_fine]):
        raise ValueError(f"{profile.spec.name}: no feasible {n_stages}-stage grouping")
    bounds, j = [n_fine], n_fine
    for k in range(n_stages, 0, -1):
        j = arg[k][j]
        bounds.append(j)
    bounds.reverse()
    groups = tuple((bounds[i], bounds[i + 1]) for i in range(n_stages))
    plan = build_plan(profile, [fine[hi - 1].end for _, hi in groups], dp[n_stages][n_fine])
    return LadderRung(n_stages, plan, groups)


def oracle_ladder(spec: ModelSpec, stage_counts):
    """(profile, fine plan, {count: rung}) built from scratch for ``spec``."""
    profile = ModelProfile(spec=spec, graph=build_transformer(spec), cost_model=CostModel())
    partitioner = PerKPartitioner(profile)
    gpu_memory = GPU_MEMORY
    total = profile.graph.total_param_bytes
    feasible = [
        count
        for count in sorted(set(stage_counts))
        if count <= partitioner.n_positions
        and not (count > 1 and total / count > gpu_memory)
        and not (count == 1 and total > gpu_memory)
    ]
    if not feasible:
        raise ValueError(f"{spec.name}: no feasible granularity among {stage_counts}")
    fine_plan = partitioner.plan(feasible[-1])
    rungs = {count: oracle_group_rung(profile, fine_plan, count) for count in feasible}
    return profile, fine_plan, rungs


def assert_matches_oracle(spec: ModelSpec, stage_counts) -> None:
    try:
        profile, fine_plan, rungs = oracle_ladder(spec, stage_counts)
    except ValueError as expected:
        with pytest.raises(ValueError) as got:
            get_ladder(spec, CostModel(), stage_counts)
        assert str(got.value) == str(expected)
        return
    ladder = get_ladder(spec, CostModel(), stage_counts)
    assert ladder.profile.spec == spec
    assert ladder.stage_counts == sorted(rungs)
    assert ladder.fine_plan == fine_plan
    assert ladder.rung(ladder.finest).plan is ladder.fine_plan
    for count, rung in rungs.items():
        got = ladder.rung(count)
        assert got.groups == rung.groups
        assert got.plan.objective == rung.plan.objective
        assert got.plan == rung.plan  # name, stage profiles, max batches
    shared = get_profile(spec, CostModel())
    for stage in fine_plan.stages:
        ours = shared.stage(stage.start, stage.end)
        assert ours == profile.stage(stage.start, stage.end)
        assert shared.stage_max_batch(ours) == profile.stage_max_batch(stage.profile)


def fleet_shapes(scenario: str) -> list[ModelSpec]:
    """One tenant per distinct model shape of a catalog scenario."""
    by_shape: dict[tuple, ModelSpec] = {}
    for name in get_scenario(scenario).model_names:
        spec = get_model(name)
        by_shape.setdefault(spec.shape, spec)
    return list(by_shape.values())


def random_specs(seed: int, n: int) -> list[ModelSpec]:
    rng = random.Random(seed)
    return [
        ModelSpec(
            name=f"RANDOM-{seed}-{i}",
            n_layers=rng.randint(1, 12),
            hidden=rng.choice((512, 1024, 2048, 4096)),
            n_heads=8,
            vocab=rng.choice((8000, 32000)),
            checkpoint_bytes=rng.uniform(0.5, 400.0) * GB,
            encoder_layers=rng.choice((0, 0, 2)),
            avg_context_tokens=rng.choice((128, 660)),
        )
        for i in range(n)
    ]


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty set-up caches for one test (restored afterwards)."""
    for name in ("_GRAPH_CACHE", "_PROFILE_CACHE", "_LADDER_CACHE"):
        monkeypatch.setattr(context, name, {})


# ----------------------------------------------------------------------
# Shared path == oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stage_counts", STAGE_SETS)
@pytest.mark.parametrize("name", sorted(MODEL_ZOO))
def test_zoo_ladders_match_oracle(name, stage_counts):
    assert_matches_oracle(MODEL_ZOO[name], stage_counts)


@pytest.mark.parametrize("stage_counts", STAGE_SETS)
@pytest.mark.parametrize("scenario", ["coldstart-economy", "azure-replay-2019"])
def test_fleet_shapes_match_oracle(scenario, stage_counts):
    shapes = fleet_shapes(scenario)
    assert len(shapes) < len(get_scenario(scenario).model_names)
    for spec in shapes:
        assert_matches_oracle(spec, stage_counts)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_specs_match_oracle(seed):
    for spec in random_specs(seed, 4):
        for stage_counts in STAGE_SETS:
            assert_matches_oracle(spec, stage_counts)


def test_bound_tenant_matches_its_own_oracle(fresh_caches):
    """A cache hit for a second same-shape tenant equals that tenant's
    from-scratch ladder, name included."""
    first, second = get_model("FLEET-0-10g"), get_model("FLEET-1-10g")
    get_ladder(first, CostModel(), FLEXPIPE_COUNTS)
    assert_matches_oracle(second, FLEXPIPE_COUNTS)


# ----------------------------------------------------------------------
# Keys: shape, not name
# ----------------------------------------------------------------------
def test_same_name_different_shape_is_not_served_stale(fresh_caches):
    """Two specs with one name but different shapes each get their own
    graph, profile and ladder."""
    base = ModelSpec(
        name="TWIN", n_layers=4, hidden=1024, n_heads=8, vocab=8000,
        checkpoint_bytes=2 * GB,
    )
    deeper = replace(base, n_layers=6)
    heavier = replace(base, checkpoint_bytes=300 * GB)
    for spec in (base, deeper, heavier):
        graph = get_graph(spec)
        assert len(graph) == len(build_transformer(spec))
        assert graph.total_param_bytes == pytest.approx(spec.checkpoint_bytes)
        profile = get_profile(spec, CostModel())
        assert profile.spec == spec
        assert profile.graph is graph
        assert_matches_oracle(spec, BASELINE_COUNTS)


def test_same_shape_tenants_share_graph_and_stage_memos(fresh_caches):
    a, b = get_model("FLEET-0-10g"), get_model("FLEET-1-10g")
    assert a.shape == b.shape and a.name != b.name
    assert get_graph(a) is get_graph(b)
    pa, pb = get_profile(a, CostModel()), get_profile(b, CostModel())
    assert (pa.spec, pb.spec) == (a, b)
    assert pa.stage(0, 5) is pb.stage(0, 5)


def test_bind_rejects_another_shape():
    profile = get_profile(get_model("FLEET-0-10g"), CostModel())
    with pytest.raises(ValueError, match="FLEET-0-12g"):
        profile.bind(get_model("FLEET-0-12g"))
    ladder = get_ladder(get_model("FLEET-0-10g"), CostModel(), FLEXPIPE_COUNTS)
    with pytest.raises(ValueError, match="FLEET-0-12g"):
        ladder.bind(get_profile(get_model("FLEET-0-12g"), CostModel()))


# ----------------------------------------------------------------------
# Names are bound per tenant, also on a cache hit
# ----------------------------------------------------------------------
def test_each_tenant_ladder_carries_its_own_name(fresh_caches):
    a, b = get_model("FLEET-0-10g"), get_model("FLEET-1-10g")
    la = get_ladder(a, CostModel(), FLEXPIPE_COUNTS)
    lb = get_ladder(b, CostModel(), FLEXPIPE_COUNTS)
    assert get_ladder(a, CostModel(), FLEXPIPE_COUNTS) is la
    for ladder, spec in ((la, a), (lb, b)):
        assert ladder.profile.spec == spec
        assert ladder.fine_plan.model_name == spec.name
        for count in ladder.stage_counts:
            assert ladder.plan(count).model_name == spec.name
            assert spec.name in ladder.plan(count).describe()
    for count in la.stage_counts:
        assert replace(la.plan(count), model_name=b.name) == lb.plan(count)
    with pytest.raises(KeyError, match="FLEET-1-10g"):
        lb.rung(64)


def test_error_messages_carry_the_tenant_name(fresh_caches):
    a, b = get_model("FLEET-0-100g"), get_model("FLEET-1-100g")
    get_ladder(a, CostModel(), FLEXPIPE_COUNTS)
    for spec in (a, b):
        partitioner = Partitioner(get_profile(spec, CostModel()))
        with pytest.raises(InfeasiblePartition, match=f"^{spec.name} does not fit"):
            partitioner.plan(1)
        with pytest.raises(InfeasiblePartition, match=f"^{spec.name}: cannot make"):
            partitioner.plan(10_000)
    huge = [get_model("FLEET-0-5000g"), get_model("FLEET-1-5000g")]
    for spec in huge + huge:
        with pytest.raises(ValueError, match=f"^{spec.name}: no feasible granularity"):
            get_ladder(spec, CostModel(), FLEXPIPE_COUNTS)


TWINS = ScenarioSpec(
    name="shape-twins",
    cluster="small",
    settle=30.0,
    drain=10.0,
    models=tuple(
        ModelScript(
            name,
            segments=(ArrivalSegment("steady", duration=20.0, qps=2.0),),
        )
        for name in ("FLEET-0-10g", "FLEET-1-10g")
    ),
    events=tuple(
        ScenarioEvent(at=8.0, action="refactor", model=name, target_stages=8)
        for name in ("FLEET-0-10g", "FLEET-1-10g")
    ),
)


def test_refactor_events_carry_each_tenants_name(fresh_caches):
    report = run_scenario_case(ScenarioCase(TWINS, "FlexPipe", trace=True))
    switched = [e for e in report.fleet_events if e.kind == "refactor_switched"]
    assert {e.detail["model"] for e in switched} == {"FLEET-0-10g", "FLEET-1-10g"}
    for event in switched:
        assert event.detail["replica"].startswith(event.detail["model"] + "/")


def test_alloc_blocked_events_carry_each_tenants_name(fresh_caches):
    """Two same-shape tenants too large for the cluster each block under
    their own name."""
    spec = replace(
        TWINS,
        models=tuple(
            replace(m, model=m.model.replace("10g", "900g")) for m in TWINS.models
        ),
        events=(),
        initial_replicas=0,
    )
    driver = ScenarioDriver(ScenarioCase(spec, "FlexPipe"))
    driver.run()
    blocked = [e for e in driver.system.metrics.events if e.kind == "alloc_blocked"]
    assert sorted(e.detail for e in blocked) == ["FLEET-0-900g", "FLEET-1-900g"]


def test_fleet_start_plans_once_per_shape_and_stage_set(fresh_caches, monkeypatch):
    """coldstart-economy's 108 tenants have two shapes: set-up runs the
    Eq. 2 DP at most once per (shape, stage set)."""
    calls = []
    plan = Partitioner.plan

    def counting_plan(self, n_stages):
        calls.append((self.profile.spec.shape, n_stages))
        return plan(self, n_stages)

    monkeypatch.setattr(Partitioner, "plan", counting_plan)
    spec = get_scenario("coldstart-economy")
    assert len(fleet_shapes("coldstart-economy")) == 2
    for system in ("FlexPipe", "DistServe"):
        ScenarioDriver(ScenarioCase(spec, system)).start()
    assert 2 <= len(calls) <= 4
