"""Wall-clock benchmark of the parallel experiment runner.

Times the same 4-system CV sweep (the Figs. 8/10-12 workload, shortened
horizons) sequentially and with a 4-worker pool, asserts the results are
byte-identical, and records the speedup in ``BENCH_perf.json``.

Usage::

    python benchmarks/bench_runner.py              # measure + record
    python benchmarks/bench_runner.py --jobs 8     # different pool width
    python benchmarks/bench_runner.py --check      # CI: determinism + speedup

``--check`` always gates determinism; the parallel-speedup floor applies
only when the machine has at least ``--jobs`` cores — a core-starved pool
cannot beat sequential execution, so the record carries ``core_starved``
and the gate tests only the determinism half of the contract there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PERF_FILE = REPO_ROOT / "BENCH_perf.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.figures import figure_spec  # noqa: E402
from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.scenarios.driver import ScenarioCase, run_cases  # noqa: E402

SYSTEMS = ("FlexPipe", "AlpaServe", "ServerlessLLM", "Tetris")
CVS = (1.0, 2.0, 4.0)
# With >= --jobs cores the pool must beat sequential by a comfortable
# margin (PR-1 measured near-linear scaling on 4 cores); kept modest so
# shared CI runners with noisy neighbours do not flake.
PARALLEL_SPEEDUP_FLOOR = 1.2


def run_sweep(jobs: int) -> tuple[float, list]:
    """One full 4-system x 3-CV sweep; cache off so the timing is honest."""
    cases = [
        ScenarioCase(figure_spec("runner", cv=cv), name)
        for cv in CVS
        for name in SYSTEMS
    ]
    runner = ExperimentRunner(jobs=jobs, use_cache=False)
    start = time.perf_counter()
    reports = run_cases(cases, runner=runner)
    return time.perf_counter() - start, reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4,
                        help="pool width for the parallel leg (default 4)")
    parser.add_argument("--check", action="store_true",
                        help="gate determinism (always) and the parallel "
                        "speedup floor (with enough cores) instead of "
                        "recording")
    args = parser.parse_args(argv)

    cells = len(SYSTEMS) * len(CVS)
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    print(f"sweep: {len(SYSTEMS)} systems x {len(CVS)} CVs = {cells} runs")
    if cores < args.jobs:
        print(
            f"note: only {cores} core(s) available — a {args.jobs}-wide pool "
            f"is core-starved, so wall-clock speedup is bounded by {cores}x; "
            f"the determinism check below still exercises the parallel path."
        )

    # Each leg pays its own cold start: the parallel leg once per worker
    # (forked before the parent ever ran a simulation), the sequential leg
    # once in-process.  Running the parallel leg first keeps the sequential
    # leg's later warm-cache advantage from flattering the pool.
    parallel_s, parallel_sweep = run_sweep(args.jobs)
    print(f"parallel (--jobs {args.jobs}): {parallel_s:.1f}s")
    sequential_s, sequential_sweep = run_sweep(1)
    print(f"sequential: {sequential_s:.1f}s")

    failed = [r for r in parallel_sweep if r.violations]
    if failed:
        for r in failed:
            print(f"FAIL: {r.scenario}/{r.system}/seed{r.seed}: {r.violations}")
        return 1
    if parallel_sweep != sequential_sweep:
        print("FAIL: parallel sweep differs from sequential (determinism!)")
        return 1
    print("determinism: parallel results identical to sequential")

    speedup = sequential_s / parallel_s if parallel_s > 0 else 0.0
    print(f"speedup: {speedup:.2f}x")

    core_starved = cores < args.jobs
    if args.check:
        if core_starved:
            print(
                f"note: {cores} core(s) < {args.jobs} workers — skipping "
                f"the {PARALLEL_SPEEDUP_FLOOR:.1f}x parallel floor "
                f"(core-starved); determinism gate passed above"
            )
            return 0
        if speedup < PARALLEL_SPEEDUP_FLOOR:
            print(
                f"FAIL: {speedup:.2f}x parallel speedup is below the "
                f"{PARALLEL_SPEEDUP_FLOOR:.1f}x floor"
            )
            return 1
        print(f"OK: parallel speedup above {PARALLEL_SPEEDUP_FLOOR:.1f}x")
        return 0

    perf = json.loads(PERF_FILE.read_text()) if PERF_FILE.exists() else {}
    perf["runner"] = {
        "cells": cells,
        "jobs": args.jobs,
        "cores": cores,
        "core_starved": core_starved,
        "sequential_s": round(sequential_s, 2),
        "parallel_s": round(parallel_s, 2),
        "speedup": round(speedup, 2),
    }
    PERF_FILE.write_text(json.dumps(perf, indent=2, sort_keys=True) + "\n")
    print(f"recorded in {PERF_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
