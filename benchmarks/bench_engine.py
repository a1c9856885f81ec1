"""Events/sec microbenchmark for the discrete-event engine.

Drives a serving-shaped workload — job chains, batcher-style timer
arm/cancel churn, long watchdog timers that almost always cancel, and a
4 Hz ``pending_count`` monitor (the ``ServingSystem._sample`` cadence) —
through both the current engine and the vendored seed engine
(``benchmarks/_seed_engine.py``), and records events/sec in
``BENCH_perf.json`` at the repo root.

Usage::

    python benchmarks/bench_engine.py            # measure + record
    python benchmarks/bench_engine.py --check    # CI: fail on >30% regression
    python benchmarks/bench_engine.py --horizon 100   # quicker run

``--check`` compares the measured *speedup over the seed engine* against
the recorded one: the ratio is hardware-independent, so the gate holds on
CI runners that are faster or slower than the machine that recorded it.
The speedup is the median of per-pair ratios over interleaved seed/current
runs (``--pairs``), so host load that shifts between runs moves both sides
of a ratio together instead of skewing one engine's best-of-N.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PERF_FILE = REPO_ROOT / "BENCH_perf.json"
SEED_ENGINE = pathlib.Path(__file__).parent / "_seed_engine.py"

sys.path.insert(0, str(REPO_ROOT / "src"))

# A regression gate at 30%: measured speedup may not fall below 70% of the
# recorded speedup (the ISSUE's perf-trajectory contract).
REGRESSION_TOLERANCE = 0.30


def _load_seed_engine():
    spec = importlib.util.spec_from_file_location("repro_seed_engine", SEED_ENGINE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drive(sim_cls, horizon: float = 400.0, chains: int = 32) -> tuple[int, float]:
    """Run the scenario; returns (events_processed, wall_seconds)."""
    sim = sim_cls()

    def noop() -> None:
        return None

    def job(period: float) -> None:
        # Batcher pattern: arm a short max-wait timer, cancel on dispatch.
        short_timer = sim.schedule(0.3, noop)
        # Watchdog pattern: a long idle timer that almost always cancels —
        # exactly the population heap compaction exists for.
        watchdog = sim.schedule(30.0, noop)
        sim.schedule(period, job, period)
        short_timer.cancel()
        watchdog.cancel()

    sink = {"pending": 0}

    def monitor() -> None:
        sink["pending"] += sim.pending_count()
        sim.schedule(0.25, monitor)

    for c in range(chains):
        sim.schedule(0.01 * (c + 1), job, 0.05 + 0.002 * c)
    sim.schedule(0.25, monitor)

    start = time.perf_counter()
    sim.run(until=horizon)
    return sim.events_processed, time.perf_counter() - start


def measure(horizon: float, pairs: int = 5) -> dict:
    """Median per-pair speedup over ``pairs`` interleaved seed/current runs.

    Each pair drives both engines back to back on the identical scenario,
    alternating which goes first, so both sides of a ratio see the same
    host load; the median ratio then drops the pairs a load spike hit.
    The recorded rates are each engine's median.
    """
    import repro.simulation.engine as current_engine

    engines = {"seed": _load_seed_engine(), "current": current_engine}
    rates: dict[str, list[float]] = {"seed": [], "current": []}
    events: dict[str, int] = {}
    ratios = []
    for i in range(pairs):
        order = ("seed", "current") if i % 2 == 0 else ("current", "seed")
        for label in order:
            events[label], elapsed = drive(engines[label].Simulator, horizon=horizon)
            rates[label].append(events[label] / elapsed)
        ratios.append(rates["current"][-1] / rates["seed"][-1])
    out: dict = {
        label: {
            "events": events[label],
            "events_per_sec": round(statistics.median(rates[label])),
        }
        for label in engines
    }
    out["pairs"] = pairs
    out["speedup"] = round(statistics.median(ratios), 3)
    return out


def load_perf() -> dict:
    if PERF_FILE.exists():
        return json.loads(PERF_FILE.read_text())
    return {}


def save_perf(perf: dict) -> None:
    PERF_FILE.write_text(json.dumps(perf, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=float, default=400.0,
                        help="simulated seconds to drive (default 400)")
    parser.add_argument("--pairs", type=int, default=5,
                        help="interleaved seed/current run pairs; the gate "
                        "reads their median speedup (default 5)")
    parser.add_argument("--check", action="store_true",
                        help="compare against BENCH_perf.json instead of recording")
    args = parser.parse_args(argv)

    result = measure(args.horizon, args.pairs)
    print(
        f"seed engine:    {result['seed']['events_per_sec']:>10,} events/s "
        f"({result['seed']['events']} events)"
    )
    print(
        f"current engine: {result['current']['events_per_sec']:>10,} events/s "
        f"({result['current']['events']} events)"
    )
    print(
        f"speedup over seed: {result['speedup']:.2f}x "
        f"(median of {result['pairs']} interleaved pairs)"
    )

    if result["seed"]["events"] != result["current"]["events"]:
        print("FAIL: engines processed different event counts (determinism!)")
        return 1

    if args.check:
        recorded = load_perf().get("engine")
        if not recorded:
            print("no recorded engine numbers in BENCH_perf.json; run without --check first")
            return 1
        floor = recorded["speedup"] * (1.0 - REGRESSION_TOLERANCE)
        print(f"recorded speedup {recorded['speedup']:.2f}x -> floor {floor:.2f}x")
        if result["speedup"] < floor:
            print(f"FAIL: engine speedup regressed below {floor:.2f}x")
            return 1
        print("OK: engine performance within tolerance")
        return 0

    perf = load_perf()
    perf["engine"] = result
    save_perf(perf)
    print(f"recorded in {PERF_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
