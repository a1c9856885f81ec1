#!/usr/bin/env python
"""Replay an Azure Functions trace through FlexPipe (Fig. 1 workload).

The paper drives its evaluation with Azure Functions traces whose CV
changes 7x with the measurement window.  This example loads one day of
the bundled AzureFunctionsDataset2019-format fixture, measures the
multi-window CV mismatch, then replays the busiest function's day —
time-compressed to a 6 req/s mean — through FlexPipe and reports how
many inflight refactors the shifting burstiness triggered.

Run:  python examples/trace_replay.py
"""

from __future__ import annotations

from repro import (
    FlexPipeSystem,
    LLAMA2_7B,
    RandomStreams,
    ServingContext,
    Simulator,
    make_paper_cluster,
)
from repro.cluster.fragmentation import FragmentationModel
from repro.metrics.ascii_plot import sparkline
from repro.workloads.arrivals import ReplayArrivals
from repro.workloads.azure import fig1_report
from repro.workloads.azure2019 import (
    BIN_SECONDS,
    Azure2019Source,
    iter_minted_stamps,
    load_window_cached,
)
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.splitwise import MixedCorpusSampler

#: The whole fixture day, every function.
DAY = Azure2019Source(start_minute=0, end_minute=1440, top_k=260)
TARGET_RATE = 6.0  # mean req/s of the compressed replay


def main() -> None:
    # 1. Load one day of the 2019-format fixture (no download).
    window = load_window_cached(DAY)
    top1 = window.functions[0]
    print(f"dataset: {len(window.functions)} functions, "
          f"{DAY.window_seconds / 3600:.0f} h")
    print(f"top function {top1.function}: {top1.total} invocations")

    # 2. The Fig. 1 phenomenon: CV depends strongly on the window.
    cvs = fig1_report(window)["total"]
    print("\nFig. 1 check - CV of the total trace by window:")
    for size, cv in cvs.items():
        label = f"{size / 3600:.1f}h" if size >= 3600 else f"{size:.0f}s"
        print(f"  {label:>6}: CV = {cv:.2f}")
    print("  rate  : " + sparkline((top1.counts / BIN_SECONDS).tolist(), width=72))

    # 3. Replay the top function's whole day through FlexPipe, compressed
    # so it averages TARGET_RATE req/s.
    replay_seconds = top1.total / TARGET_RATE
    sim = Simulator()
    streams = RandomStreams(seed=11)
    cluster = make_paper_cluster(sim)
    FragmentationModel(sim, cluster, streams).warm_up()
    ctx = ServingContext.create(sim, cluster, streams)
    # The controller's capacity model must know the corpus shape: a mixed
    # coding/conversation stream averages ~1800 prompt / ~60 output tokens.
    system = FlexPipeSystem(
        ctx,
        [LLAMA2_7B],
        initial_replicas=2,
        prompt_tokens=1800,
        output_tokens=60,
        slo_deadline=15.0,
    )
    system.start()
    sim.run(until=120.0)  # initial loads

    arrivals = ReplayArrivals(
        iter_minted_stamps(
            top1.counts, scale=replay_seconds / DAY.window_seconds
        ),
        streams.stream("replay"),
    )
    sampler = MixedCorpusSampler(
        LLAMA2_7B.name,
        streams.stream("requests"),
        weights={"coding": 0.8, "conversation": 0.2},
        slo_latency=15.0,
    )
    WorkloadGenerator(sim, arrivals, sampler, system.submit, duration=replay_seconds)
    sim.run(until=120.0 + replay_seconds + 60.0)
    system.shutdown()

    # 4. Report.
    summary = system.summarize(replay_seconds + 60.0)
    print(f"\n--- replayed {summary.offered} requests from {top1.function} ---")
    print(f"inter-arrival CV of replayed stream: {arrivals.cv:.2f}")
    print(f"completed    : {summary.completed}/{summary.offered}")
    print(f"goodput      : {summary.goodput_rate:.1%} within 15s SLO")
    print(f"mean latency : {summary.mean_latency:.2f}s")
    print(f"adaptation   : {summary.refactor_count} inflight refactors, "
          f"{summary.scale_out_count} scale-outs")


if __name__ == "__main__":
    main()
