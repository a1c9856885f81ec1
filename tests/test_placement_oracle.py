"""Single-scan placement against the per-stage rescan it replaced.

``GPUAllocator._place_stages`` scans the fleet once per attempt, reads
each GPU's free memory once and memoises each GPU's base score for the
attempt.  The reference placer below is the previous implementation: one
``candidates`` rescan per stage and a ``max`` over ``(score, free)`` with
the per-stage scorer composed as ``base(g) + bonus(g)``.  On seeded
fleets with cordoned GPUs, same-model anti-affinity, ``exclude`` sets and
deliberate ties on score and free memory, both must choose the same GPUs
in the same order.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.allocator import AllocationError, GPUAllocator
from repro.cluster.cluster import make_small_cluster
from repro.simulation.engine import Simulator
from repro.transfer.links import GB

MODEL = "target"


def reference_place(allocator, model, mem_per_stage, scorer, exclude, bonuses):
    """The per-stage rescan placer: chosen GPUs in stage order, or None."""
    stage_scorers = None
    if bonuses:
        stage_scorers = [
            bonus if scorer is None else (lambda g, b=bonus: scorer(g) + b(g))
            for bonus in bonuses
        ]
    chosen = []
    banned = {g.gid for g in exclude}
    for idx, mem in enumerate(mem_per_stage):
        pool = [
            g for g in allocator.candidates(mem, model=model) if g.gid not in banned
        ]
        if not pool:
            return None
        stage_scorer = stage_scorers[idx] if stage_scorers else scorer
        if stage_scorer is not None:
            best = max(pool, key=lambda g: (stage_scorer(g), g.free_memory))
        else:
            best = max(pool, key=lambda g: g.free_memory)
        chosen.append(best)
        banned.add(best.gid)
    return chosen


def _seeded_fleet(seed):
    """A 16-GPU fleet: quantised fills (so free memory ties), a few GPUs
    already hosting the target model, a few cordoned."""
    rng = random.Random(seed)
    sim = Simulator()
    cluster = make_small_cluster(sim, n_servers=8, gpus_per_server=2)
    allocator = GPUAllocator(cluster)
    for gpu in cluster.gpus:
        fill = rng.choice([0, 10, 10, 20, 40, 60, 70]) * GB
        if fill:
            allocator.reserve_on(rng.choice(["a", "b", "c"]), gpu, fill)
        if rng.random() < 0.15:
            allocator.reserve_on(MODEL, gpu, 1 * GB)  # anti-affinity
        if rng.random() < 0.1:
            gpu.cordoned = True
    return rng, allocator


def _counting_scorer(table, calls):
    def score(gpu):
        calls[gpu.gid] = calls.get(gpu.gid, 0) + 1
        return table[gpu.gid]

    return score


CASES = [
    pytest.param(False, False, id="free-memory-only"),
    pytest.param(True, False, id="base-scorer"),
    pytest.param(False, True, id="bonuses-without-base"),
    pytest.param(True, True, id="base-plus-bonuses"),
]


@pytest.mark.parametrize("with_base,with_bonus", CASES)
@pytest.mark.parametrize("seed", range(40))
def test_single_scan_matches_per_stage_rescan(seed, with_base, with_bonus):
    rng, allocator = _seeded_fleet(seed)
    gpus = allocator.cluster.gpus
    n_stages = rng.randint(1, 10)
    mems = [rng.choice([5, 10, 10, 20, 30, 50, 70]) * GB for _ in range(n_stages)]
    exclude = rng.sample(gpus, rng.randint(0, 3))
    # Coarse levels make score ties (and, with the quantised fills,
    # full (score, free) ties) common; 0.1/0.2/0.7 exercise float order.
    base_table = {g.gid: rng.choice([0.0, 0.1, 0.5, 0.7]) for g in gpus}
    base_calls: dict[str, int] = {}
    scorer = _counting_scorer(base_table, base_calls) if with_base else None
    bonuses = None
    if with_bonus:
        bonuses = []
        for _ in range(n_stages):
            table = {g.gid: rng.choice([0.0, 0.2, 1.0]) for g in gpus}
            bonuses.append(lambda g, t=table: t[g.gid])

    reference_scorer = (lambda g: base_table[g.gid]) if with_base else None
    expected = reference_place(
        allocator, MODEL, mems, reference_scorer, exclude, bonuses
    )

    scans = []
    scan = allocator.candidates

    def candidates(*args, **kwargs):
        scans.append(1)
        return scan(*args, **kwargs)

    allocator.candidates = candidates
    if expected is None:
        live = dict(allocator.live)
        with pytest.raises(AllocationError):
            allocator._place_stages(MODEL, mems, scorer, exclude, bonuses)
        assert allocator.live == live  # nothing reserved on failure
    else:
        got = allocator._place_stages(MODEL, mems, scorer, exclude, bonuses)
        assert [r.gpu.gid for r in got] == [g.gid for g in expected]
        assert [r.nbytes for r in got] == mems
    assert len(scans) == 1  # one fleet scan per placement attempt
    assert all(n == 1 for n in base_calls.values())  # base memoised per attempt


def test_memo_lives_for_one_attempt_only():
    """A retry re-scores: state may have moved between attempts."""
    _rng, allocator = _seeded_fleet(3)
    calls: dict[str, int] = {}
    table = {g.gid: 0.0 for g in allocator.cluster.gpus}
    scorer = _counting_scorer(table, calls)
    first = allocator.allocate_stages(MODEL, [GB, GB], scorer=scorer)
    for reservation in first:
        allocator.release(reservation)
    allocator.allocate_stages(MODEL, [GB, GB], scorer=scorer)
    assert calls and all(n == 2 for n in calls.values())


def test_empty_placement_scans_nothing():
    _rng, allocator = _seeded_fleet(0)
    scans = []
    allocator.candidates = lambda *a, **k: scans.append(1) or []
    assert allocator._place_stages(MODEL, [], None, ()) == []
    assert scans == []
