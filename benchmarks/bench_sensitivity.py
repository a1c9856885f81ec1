"""Design-choice sensitivity sweeps (DESIGN.md ablation index).

The controller has three tunables the paper introduces but does not sweep
publicly; these benches characterise them so a deployer knows the safe
ranges:

* Eq. 4's ``alpha`` (throughput-latency weight): low alpha favours
  latency -> coarser pipelines at low CV; high alpha favours throughput
  -> finer pipelines (bigger aggregate batch).
* Eq. 4's ``sigma`` (adaptation sensitivity): small sigma hard-gates on
  the CV setpoint match (selection tracks CV tightly); large sigma lets
  the quality term dominate (selection goes flat in CV).
* Eq. 11's ``beta/gamma`` (scaling-unit sigmoid): the midpoint of the
  coarse->fine transition must sit inside the operating range of
  cv * q̂, and the transition must be monotone.

All sweeps run on cached performance profiles (no cluster simulation), so
this bench is cheap and exact.
"""

from __future__ import annotations

from conftest import emit

from repro.core.context import get_profile
from repro.metrics.report import format_table
from repro.models.costs import CostModel
from repro.models.zoo import OPT_66B
from repro.partitioning.ladder import GranularityLadder
from repro.refactoring.granularity import GranularityPolicy
from repro.scaling.decision import scaling_granularity

CVS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)


def make_ladder():
    profile = get_profile(OPT_66B, CostModel())
    return profile, GranularityLadder(profile, stage_counts=(2, 4, 8, 16, 32))


def sweep_alpha():
    profile, ladder = make_ladder()
    rows = {}
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        policy = GranularityPolicy(profile, ladder, alpha=alpha, batch_cap=32)
        rows[alpha] = [policy.select(cv) for cv in CVS]
    return rows


def sweep_sigma():
    profile, ladder = make_ladder()
    rows = {}
    for sigma in (0.3, 0.6, 1.2, 2.4, 4.8):
        policy = GranularityPolicy(profile, ladder, sigma=sigma, batch_cap=32)
        rows[sigma] = [policy.select(cv) for cv in CVS]
    return rows


def test_alpha_sensitivity(benchmark):
    rows = benchmark.pedantic(sweep_alpha, rounds=1, iterations=1)
    table = [[a] + stages for a, stages in rows.items()]
    emit(
        "sensitivity_alpha",
        format_table(
            ["alpha"] + [f"CV={cv}" for cv in CVS],
            table,
            title="Eq. 4 alpha sweep - selected stage count by CV",
        ),
    )
    for stages in rows.values():
        # Selection never gets coarser as CV rises (deeper pipelines absorb
        # bursts) regardless of the throughput-latency weighting.
        assert all(a <= b for a, b in zip(stages, stages[1:]))
    # The weight matters: pure-latency and pure-throughput policies pick
    # different granularities somewhere in the sweep.
    assert rows[0.0] != rows[1.0]


def test_sigma_sensitivity(benchmark):
    rows = benchmark.pedantic(sweep_sigma, rounds=1, iterations=1)
    table = [[s] + stages for s, stages in rows.items()]
    emit(
        "sensitivity_sigma",
        format_table(
            ["sigma"] + [f"CV={cv}" for cv in CVS],
            table,
            title="Eq. 4 sigma sweep - selected stage count by CV",
        ),
    )
    # Tight sigma tracks the CV setpoints: distinct choices across the
    # sweep; huge sigma flattens selection (fewer distinct choices).
    tight = len(set(rows[0.3]))
    flat = len(set(rows[4.8]))
    assert tight >= flat
    assert tight >= 3


def test_eq11_sigmoid_calibration(benchmark):
    def sweep():
        out = []
        for cv in (0.1, 1.0, 2.0, 4.0, 8.0):
            for q in (0, 64, 256, 512):
                out.append(
                    (cv, q, scaling_granularity(cv, q, g_max=32, queue_capacity=512))
                )
        return out

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = [[cv, q, m] for cv, q, m in points]
    emit(
        "sensitivity_eq11",
        format_table(
            ["cv", "queue", "scaling granularity m_j"],
            table,
            title="Eq. 11 sigmoid - scaling unit granularity vs cv and queue",
        ),
    )
    by_key = {(cv, q): m for cv, q, m in points}
    # Calm & empty -> coarse units; bursty & congested -> finest units.
    assert by_key[(0.1, 0)] <= 2
    assert by_key[(8.0, 512)] == 32
    # Monotone in both arguments.
    for cv in (0.1, 1.0, 2.0, 4.0, 8.0):
        ms = [by_key[(cv, q)] for q in (0, 64, 256, 512)]
        assert all(a <= b for a, b in zip(ms, ms[1:]))
    for q in (0, 64, 256, 512):
        ms = [by_key[(cv, q)] for cv in (0.1, 1.0, 2.0, 4.0, 8.0)]
        assert all(a <= b for a, b in zip(ms, ms[1:]))
