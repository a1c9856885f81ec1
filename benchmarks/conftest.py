"""Shared benchmark fixtures and result emission.

Every paper bench judges one row of the artefact table
(:data:`repro.experiments.artefacts.ARTEFACTS`): it runs the row's
cells, prints its paper-vs-measured table, writes it to
``benchmarks/_results/`` so the output survives pytest's capture, and
asserts the row's claims.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.artefacts import ARTEFACTS
from repro.experiments.runner import ExperimentRunner

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/_results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def bench_runner() -> ExperimentRunner:
    """The parallel runner the benchmark drivers share.

    Defaults to one worker per core (capped at 8 — the sweeps rarely have
    more independent cells in flight); ``REPRO_JOBS`` overrides.  Results
    are byte-identical at any job count.  The result cache is OFF here:
    pytest-benchmark timings must measure simulations, not pickle loads
    (set ``REPRO_BENCH_CACHE=1`` to opt back in when iterating on table
    formatting rather than numbers).
    """
    try:
        cores = len(os.sched_getaffinity(0))  # honors cgroup/affinity limits
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    jobs = int(os.environ.get("REPRO_JOBS") or 0) or min(cores, 8)
    use_cache = bool(os.environ.get("REPRO_BENCH_CACHE"))
    return ExperimentRunner(jobs=jobs, use_cache=use_cache)


@pytest.fixture(scope="session")
def runner():
    return bench_runner()


def judge_artefact(name: str, benchmark, runner, measured: dict) -> None:
    """Run artefact ``name`` at seed 0, emit its table and assert its
    claims.  ``measured`` maps cells already run to their data, so cells
    shared by several artefacts run once."""
    artefact = ARTEFACTS[name]

    def measure():
        if artefact.cells not in measured:
            measured[artefact.cells] = artefact.cells(0, runner)
        return artefact.rows(measured[artefact.cells])

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit(artefact.result_stem, artefact.render(rows))
    failed = [claim.text for claim in artefact.failed(rows)]
    assert not failed, f"{name}: claims failed: {failed}"


@pytest.fixture(scope="session")
def judge(runner):
    """``judge(name, benchmark)``: :func:`judge_artefact` for one session.

    The five-system CV sweep behind Figs. 8, 10, 11 and 12 (15
    full-cluster simulations) runs once per session.
    """
    measured: dict = {}
    return lambda name, benchmark: judge_artefact(name, benchmark, runner, measured)
